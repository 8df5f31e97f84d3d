package core

import (
	"testing"

	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/traffic"
)

// TestRunTrafficOnAssembledSystem drives sustained MF-TDMA load through
// the assembled system's payload with the control plane wired up — a
// traffic engine built straight on sys.Payload, as E12 builds it.
func TestRunTrafficOnAssembledSystem(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	if err := sys.Payload.SetWaveform(payload.ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := sys.Payload.SetCodec("conv-r1/2-k9"); err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultConfig()
	cfg.Frame = modem.FrameConfig{Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16}
	cfg.Verify = true
	cfg.Seed = 13
	eng, err := traffic.New(sys.Payload, cfg, []traffic.Terminal{
		{ID: "t0", Beam: 0, Model: traffic.CBR{Cells: 1}},
		{ID: "t1", Beam: 1, Model: traffic.CBR{Cells: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.Frames != 4 || rep.OutageFrames != 0 {
		t.Fatalf("ran %d frames with %d outages", rep.Frames, rep.OutageFrames)
	}
	if rep.UplinkBitErrs != 0 || rep.DownlinkBitErrs != 0 || rep.DownlinkLost != 0 {
		t.Fatalf("loop not bit-exact: %+v", rep)
	}
	if rep.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
}
