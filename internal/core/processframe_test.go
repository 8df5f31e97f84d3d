package core

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/payload"
)

// TestProcessFrameThroughAssembledSystem drives uplink traffic through
// the full assembled system's payload on the concurrent batch path: one
// frame, one burst per carrier, all demodulated/decoded/switched while
// the control plane (TC/TM link, NCC, PEP) is wired up around it.
func TestProcessFrameThroughAssembledSystem(t *testing.T) {
	cfg := DefaultSystemConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	pl := sys.Payload
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec("uncoded"); err != nil {
		t.Fatal(err)
	}

	f := pl.BurstFormat()
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	rng := rand.New(rand.NewSource(21))
	carriers := pl.Config().Carriers
	rx := make([]dsp.Vec, carriers)
	infos := make([][]byte, carriers)
	for c := range rx {
		info := make([]byte, f.PayloadBits())
		for i := range info {
			info[i] = byte(rng.Intn(2))
		}
		ch := dsp.NewChannel(int64(30 + c))
		ch.EsN0dB = 15
		ch.SPS = 4
		rx[c] = ch.Apply(mod.Modulate(info))
		infos[c] = info
	}

	bits, err := pl.ProcessFrame(2, rx)
	if err != nil {
		t.Fatalf("ProcessFrame: %v", err)
	}
	for c := range bits {
		if errs := fec.CountBitErrors(infos[c], bits[c][:len(infos[c])]); errs > 2 {
			t.Fatalf("carrier %d: %d bit errors through the assembled system", c, errs)
		}
	}
	if got := len(pl.Switch().Drain(2)); got != carriers {
		t.Fatalf("switch received %d packets, want %d", got, carriers)
	}
}
