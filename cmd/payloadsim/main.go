// Command payloadsim runs uplink traffic through the regenerative payload
// (Fig 2): modulate user data in the selected waveform, pass it through
// an AWGN channel, and let the payload demodulate, decode and switch it,
// printing the resulting error rates and switch statistics. Packets are
// grouped into MF-TDMA frames of one burst per carrier and received on
// the concurrent batch path (Payload.ProcessFrame), one worker per
// carrier as on the FPGA bank.
//
// Usage:
//
//	payloadsim -waveform tdma -codec conv-r1/2-k9 -ebn0 4 -packets 20
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/cdma"
	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/payload"
)

func main() {
	waveform := flag.String("waveform", "tdma", "uplink waveform: cdma or tdma")
	codec := flag.String("codec", "uncoded", "decoder: uncoded, conv-r1/2-k9, conv-r1/3-k9, turbo-r1/3")
	ebn0 := flag.Float64("ebn0", 6, "channel Eb/N0 in dB")
	packets := flag.Int("packets", 20, "packets to send")
	strategy := flag.String("partitioning", "per-equipment", "single-chip, per-equipment or per-function")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	cfg := payload.DefaultConfig()
	switch *strategy {
	case "single-chip":
		cfg.Strategy = payload.SingleChip
	case "per-equipment":
		cfg.Strategy = payload.PerEquipment
	case "per-function":
		cfg.Strategy = payload.PerFunction
	default:
		log.Fatalf("unknown partitioning %q", *strategy)
	}

	pl, err := payload.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	mode := payload.ModeTDMA
	if *waveform == "cdma" {
		mode = payload.ModeCDMA
	}
	if err := pl.SetWaveform(mode); err != nil {
		log.Fatal(err)
	}
	if err := pl.SetCodec(*codec); err != nil {
		log.Fatal(err)
	}
	c, err := pl.Codec()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("payload: %s partitioning, waveform=%s codec=%s Eb/N0=%.1f dB\n",
		cfg.Strategy, pl.Mode(), c.Name(), *ebn0)

	// Per-packet info size and the codeword length the frame pipeline
	// should trim each burst to before decoding.
	infoLen := 128
	if mode == payload.ModeTDMA {
		infoLen = infoBitsFor(c, pl.BurstFormat().PayloadBits())
	}
	pl.SetBurstCodedBits(c.EncodedLen(infoLen))

	// Synthesize one burst per packet, then receive them frame by frame
	// (one burst per carrier) on the concurrent batch path.
	rng := rand.New(rand.NewSource(*seed))
	totalBits, errBits, lost := 0, 0, 0
	makeBurst := func(p int) (dsp.Vec, []byte) {
		info := randBits(rng, infoLen)
		coded := c.Encode(info)
		if mode == payload.ModeCDMA {
			if len(coded)%2 != 0 {
				coded = append(coded, 0)
			}
			mod := cdma.NewModulator(cfg.CDMA)
			rx := mod.Modulate(coded)
			ebn0lin := math.Pow(10, *ebn0/10) * c.Rate()
			n0 := float64(cfg.CDMA.SF) / (2 * ebn0lin)
			ch := dsp.NewChannel(*seed + int64(p))
			ch.AWGN(rx, n0)
			return rx, info
		}
		f := pl.BurstFormat()
		padded := make([]byte, f.PayloadBits())
		copy(padded, coded)
		mod := modem.NewBurstModulator(f, 0.35, 4, 10)
		rx := dsp.NewChannelWith(*seed+int64(p), *ebn0+10*math.Log10(2*c.Rate()), 4).Apply(mod.Modulate(padded))
		return rx, info
	}
	for base := 0; base < *packets; base += cfg.Carriers {
		n := cfg.Carriers
		if base+n > *packets {
			n = *packets - base
		}
		frame := make([]dsp.Vec, n)
		infos := make([][]byte, n)
		for i := range frame {
			frame[i], infos[i] = makeBurst(base + i)
		}
		dec, _ := pl.ProcessFrame(base/cfg.Carriers%4, frame)
		for i, d := range dec {
			if d == nil || len(d) < infoLen {
				lost++
				continue
			}
			errBits += fec.CountBitErrors(infos[i], d[:infoLen])
			totalBits += infoLen
		}
	}

	fmt.Printf("packets: %d sent, %d lost\n", *packets, lost)
	if totalBits > 0 {
		fmt.Printf("BER: %d/%d = %.3e\n", errBits, totalBits, float64(errBits)/float64(totalBits))
	}
	var beams []int
	for b := 0; b < pl.Switch().NumBeams(); b++ {
		if pl.Switch().QueueDepth(b) > 0 {
			beams = append(beams, b)
		}
	}
	fmt.Printf("switch: %d packets routed across beams %v\n", pl.Switch().Routed(), beams)
}

func infoBitsFor(c fec.Codec, budget int) int {
	// Largest k with EncodedLen(k) <= budget, rounded to a byte-ish size.
	k := 16
	for c.EncodedLen(k+8) <= budget {
		k += 8
	}
	return k
}

func randBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}
