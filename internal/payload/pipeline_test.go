package payload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/switchfab"
)

// newTDMAPayload boots a TDMA payload with the given carrier count and
// codec, sized so each burst carries one codeword of infoLen bits.
func newTDMAPayload(t testing.TB, carriers int, codecName string, infoLen int) (*Payload, fec.Codec) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Carriers = carriers
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetWaveform(ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec(codecName); err != nil {
		t.Fatal(err)
	}
	codec, err := pl.Codec()
	if err != nil {
		t.Fatal(err)
	}
	if codec.EncodedLen(infoLen) > pl.BurstFormat().PayloadBits() {
		t.Fatalf("codeword %d does not fit the %d-bit burst", codec.EncodedLen(infoLen), pl.BurstFormat().PayloadBits())
	}
	pl.SetBurstCodedBits(codec.EncodedLen(infoLen))
	return pl, codec
}

// makeTDMABursts synthesizes one noisy burst per carrier.
func makeTDMABursts(pl *Payload, codec fec.Codec, infoLen int, seed int64) ([]dsp.Vec, [][]byte) {
	f := pl.BurstFormat()
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	rng := rand.New(rand.NewSource(seed))
	carriers := pl.Config().Carriers
	rx := make([]dsp.Vec, carriers)
	infos := make([][]byte, carriers)
	for c := 0; c < carriers; c++ {
		info := make([]byte, infoLen)
		for i := range info {
			info[i] = byte(rng.Intn(2))
		}
		coded := codec.Encode(info)
		padded := make([]byte, f.PayloadBits())
		copy(padded, coded)
		ch := dsp.NewChannelWith(seed+int64(c), 9+10*math.Log10(2*codec.Rate()), 4)
		rx[c] = ch.Apply(mod.Modulate(padded))
		infos[c] = info
	}
	return rx, infos
}

// TestProcessFrameMatchesSequential is the tentpole equivalence test:
// the concurrent batch path must be bit-identical to the sequential
// per-carrier loop — same decoded bits, same packets on the switch.
func TestProcessFrameMatchesSequential(t *testing.T) {
	const infoLen, seed = 180, 42
	plSeq, codec := newTDMAPayload(t, 8, "conv-r1/2-k9", infoLen)
	plConc, _ := newTDMAPayload(t, 8, "conv-r1/2-k9", infoLen)
	rx, infos := makeTDMABursts(plSeq, codec, infoLen, seed)

	// Sequential reference: the pre-pipeline per-carrier loop.
	need := codec.EncodedLen(infoLen)
	seqBits := make([][]byte, len(rx))
	for c := range rx {
		soft, err := plSeq.DemodulateCarrier(c, rx[c])
		if err != nil {
			t.Fatalf("carrier %d: %v", c, err)
		}
		b, err := plSeq.Decode(soft[:need])
		if err != nil {
			t.Fatalf("carrier %d decode: %v", c, err)
		}
		seqBits[c] = b
		plSeq.Switch().RoutePacket(1, switchfab.Packet{Bits: fec.PackBits(b)})
	}

	concBits, err := plConc.ProcessFrame(1, rx)
	if err != nil {
		t.Fatalf("ProcessFrame: %v", err)
	}

	for c := range rx {
		if len(seqBits[c]) != len(concBits[c]) {
			t.Fatalf("carrier %d: %d vs %d decoded bits", c, len(concBits[c]), len(seqBits[c]))
		}
		for i := range seqBits[c] {
			if seqBits[c][i] != concBits[c][i] {
				t.Fatalf("carrier %d bit %d differs between sequential and concurrent paths", c, i)
			}
		}
		if fec.CountBitErrors(infos[c], concBits[c][:infoLen]) != 0 {
			t.Fatalf("carrier %d: decoded bits wrong", c)
		}
	}

	// Same packets, same beam, same order on both switches.
	sp, cp := plSeq.Switch().Drain(1), plConc.Switch().Drain(1)
	if len(sp) != len(cp) {
		t.Fatalf("switch packets: %d vs %d", len(cp), len(sp))
	}
	for i := range sp {
		if string(sp[i]) != string(cp[i]) {
			t.Fatalf("switch packet %d differs", i)
		}
	}
}

// TestProcessFrameRepeatable: repeated concurrent runs over the same
// frame produce identical output (no schedule leakage via pooled
// demodulators or scratch buffers).
func TestProcessFrameRepeatable(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 6, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 7)
	first, err := pl.ProcessFrame(0, rx)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := pl.ProcessFrame(0, rx)
		if err != nil {
			t.Fatal(err)
		}
		for c := range first {
			if string(first[c]) != string(again[c]) {
				t.Fatalf("run %d carrier %d differs", run, c)
			}
		}
	}
	pl.Switch().Drain(0)
}

// TestProcessFramePartialFailure: a carrier whose burst is missing
// fails alone; the rest of the frame is decoded and routed.
func TestProcessFramePartialFailure(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 4, "conv-r1/2-k9", infoLen)
	rx, infos := makeTDMABursts(pl, codec, infoLen, 3)
	rx[2] = dsp.NewVec(len(rx[2])) // wipe carrier 2: no burst to find

	bits, err := pl.ProcessFrame(3, rx)
	if err == nil {
		t.Fatal("missing burst must surface as an error")
	}
	if bits[2] != nil {
		t.Fatal("carrier 2 must not decode")
	}
	for _, c := range []int{0, 1, 3} {
		if bits[c] == nil || fec.CountBitErrors(infos[c], bits[c][:infoLen]) != 0 {
			t.Fatalf("carrier %d must survive a neighbour's failure", c)
		}
	}
	if got := len(pl.Switch().Drain(3)); got != 3 {
		t.Fatalf("switch received %d packets, want 3", got)
	}
}

// TestProcessFrameServiceGating: frame processing honours device health
// exactly like the sequential path.
func TestProcessFrameServiceGating(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 2, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 5)

	d, _ := pl.Chipset().Device("demod-fpga")
	d.PowerOff()
	bits, err := pl.ProcessFrame(0, rx)
	if err == nil {
		t.Fatal("frame must fail with the demodulator down")
	}
	for c := range bits {
		if bits[c] != nil {
			t.Fatalf("carrier %d decoded through a powered-off demodulator", c)
		}
	}
	d.PowerOn()
	if _, err := pl.ProcessFrame(0, rx); err != nil {
		t.Fatalf("service must recover: %v", err)
	}
	pl.Switch().Drain(0)
}

// TestProcessFrameInputValidation covers the frame-shape errors.
func TestProcessFrameInputValidation(t *testing.T) {
	pl, _ := newTDMAPayload(t, 2, "uncoded", 64)
	if _, err := pl.ProcessFrame(0, nil); err == nil {
		t.Fatal("empty frame must error")
	}
	if _, err := pl.ProcessFrame(0, make([]dsp.Vec, 3)); err == nil {
		t.Fatal("more blocks than carriers must error")
	}
}

// TestProcessFrameShortBurstRejected: a burst whose soft bits come up
// short of the configured codeword must fail that carrier cleanly, not
// feed a truncated codeword to the decoder.
func TestProcessFrameShortBurstRejected(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 2, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 8)
	// Demand more codeword bits than the burst payload can carry.
	pl.SetBurstCodedBits(pl.BurstFormat().PayloadBits() + 8)
	bits, err := pl.ProcessFrame(0, rx)
	if err == nil {
		t.Fatal("short soft bits must surface as an error")
	}
	for c := range bits {
		if bits[c] != nil {
			t.Fatalf("carrier %d decoded a truncated codeword", c)
		}
	}
}

// TestReceiveFrameConcurrentMatchesSequential: the (carrier, slot) grid
// path fans out across workers, including several bursts per carrier,
// and must agree with a sequential demodulation loop over the
// assignments.
func TestReceiveFrameConcurrentMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Carriers = 2
	cfg.TDMAPayloadSymbols = 64
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetWaveform(ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec("uncoded"); err != nil {
		t.Fatal(err)
	}
	f := pl.BurstFormat()
	fcCfg := modem.FrameConfig{Carriers: 2, Slots: 3, SlotSymbols: f.TotalSymbols() + 30}
	fc := modem.NewFrameComposer(fcCfg, 4)
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	rng := rand.New(rand.NewSource(9))
	var assignments []modem.SlotAssignment
	var metas []RouteMeta
	for carrier := 0; carrier < 2; carrier++ {
		for slot := 0; slot < 3; slot++ {
			bits := make([]byte, f.PayloadBits())
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			a := modem.SlotAssignment{Carrier: carrier, Slot: slot}
			fc.PlaceBurst(a, mod.Modulate(bits))
			assignments = append(assignments, a)
			metas = append(metas, RouteMeta{Beam: carrier})
		}
	}

	got := pl.ReceiveFrameAndRouteQoS(fc, assignments, metas)

	for i, a := range assignments {
		want, err := pl.DemodulateCarrier(a.Carrier, fc.SlotWaveform(a))
		if err != nil {
			t.Fatalf("assignment %d: %v", i, err)
		}
		if !got[i].Found || len(got[i].Soft) != len(want) {
			t.Fatalf("assignment %d: found=%v soft %d vs %d", i, got[i].Found, len(got[i].Soft), len(want))
		}
		for j := range want {
			if got[i].Soft[j] != want[j] {
				t.Fatalf("assignment %d soft bit %d differs from sequential", i, j)
			}
		}
	}
}

// Both receive calls run one per-cell demod+decode kernel and one
// post-barrier route step, so the same TDMA bursts — raw per-carrier
// blocks into ProcessFrame, one slot per carrier of a FrameComposer
// into ReceiveFrameAndRouteQoS — must decode to identical bits, fail
// on the same cells with the same errors, and queue the same packets.
func TestProcessFrameMatchesReceiveFrameAndRouteQoS(t *testing.T) {
	const infoLen, beam = 180, 2
	cases := []struct {
		name  string
		setup func(pl *Payload)
	}{
		{"clean", func(*Payload) {}},
		{"decod-down", func(pl *Payload) {
			d, _ := pl.Chipset().Device("decod-fpga")
			d.PowerOff()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plRaw, codec := newTDMAPayload(t, 3, "conv-r1/2-k9", infoLen)
			plGrid, _ := newTDMAPayload(t, 3, "conv-r1/2-k9", infoLen)
			fc, asgs, infos := composeQoSFrame(t, plRaw, codec, infoLen, 61)
			// Wipe carrier 1's slot: a burst-not-found cell on both paths.
			fc.PlaceBurst(asgs[1], dsp.NewVec(len(fc.SlotWaveform(asgs[1]))))
			rx := make([]dsp.Vec, len(asgs))
			metas := make([]RouteMeta, len(asgs))
			for c, a := range asgs {
				rx[c] = fc.SlotWaveform(a)
				metas[c] = RouteMeta{Beam: beam}
			}
			tc.setup(plRaw)
			tc.setup(plGrid)

			bits, err := plRaw.ProcessFrame(beam, rx)
			receipts := plGrid.ReceiveFrameAndRouteQoS(fc, asgs, metas)
			ok := 0
			for c, r := range receipts {
				if (r.Err == nil) != (bits[c] != nil) {
					t.Fatalf("carrier %d: ProcessFrame ok=%v, grid receipt err %v", c, bits[c] != nil, r.Err)
				}
				if r.Err != nil {
					if want := fmt.Sprintf("carrier %d: %v", c, r.Err); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("carrier %d: ProcessFrame error %v lacks %q", c, err, want)
					}
					continue
				}
				ok++
				if !bytes.Equal(bits[c], r.Bits) {
					t.Fatalf("carrier %d: decoded bits differ between the two receive calls", c)
				}
				if fec.CountBitErrors(infos[c], r.Bits[:infoLen]) != 0 {
					t.Fatalf("carrier %d: decoded bits wrong", c)
				}
			}
			if receipts[1].Err == nil {
				t.Fatal("the wiped cell decoded")
			}
			if tc.name == "decod-down" && ok != 0 {
				t.Fatalf("%d cells decoded with DECOD powered off", ok)
			}
			if tc.name == "clean" && ok != 2 {
				t.Fatalf("%d of 2 live cells decoded", ok)
			}
			raw, grid := plRaw.Switch().Drain(beam), plGrid.Switch().Drain(beam)
			if len(raw) != ok || len(grid) != ok {
				t.Fatalf("queued %d and %d packets, want %d", len(raw), len(grid), ok)
			}
			for i := range raw {
				if !bytes.Equal(raw[i], fec.PackBits(grid[i])) {
					t.Fatalf("packet %d: ProcessFrame routed a different packet", i)
				}
			}
		})
	}
}
