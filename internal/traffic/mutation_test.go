package traffic

import (
	"strings"
	"testing"

	"repro/internal/modem"
)

// QueueDepth must tolerate out-of-range beams: observers probe queues
// freely, and a bad beam is "nothing queued", not a panic.
func TestQueueDepthOutOfRangeBeam(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	// 3 cells/frame into beam 0 against 2 downlink slots: the queue
	// holds a backlog at every frame boundary.
	terms := []Terminal{{ID: "t0", Beam: 0, Model: CBR{Cells: 3}}}
	e := newEngine(t, cfg, terms, "uncoded")
	if err := e.RunFrames(2); err != nil {
		t.Fatal(err)
	}
	for _, beam := range []int{-1, 2, 99} {
		if got := e.QueueDepth(beam); got != 0 {
			t.Fatalf("QueueDepth(%d) = %d, want 0", beam, got)
		}
	}
	if e.QueueDepth(0) == 0 {
		t.Fatal("backlogged beam reports an empty queue")
	}
}

// RunFrames must reject a non-positive frame count explicitly instead
// of silently doing nothing.
func TestRunFramesNonPositive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	terms := []Terminal{{ID: "t0", Beam: 0, Model: CBR{Cells: 1}}}
	e := newEngine(t, cfg, terms, "uncoded")
	for _, n := range []int{0, -3} {
		err := e.RunFrames(n)
		if err == nil {
			t.Fatalf("RunFrames(%d) accepted", n)
		}
		if !strings.Contains(err.Error(), "positive") {
			t.Fatalf("RunFrames(%d) error %q does not name the problem", n, err)
		}
	}
	if e.Frame() != 0 {
		t.Fatalf("rejected calls still advanced the clock to %d", e.Frame())
	}
}

// A terminal joining mid-run starts granting on the next frame; one
// leaving stops immediately, releases its slots, keeps its report row,
// and packets it already queued still deliver to its stats.
func TestJoinLeaveMidRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.Seed = 5
	terms := []Terminal{{ID: "a", Beam: 0, Model: CBR{Cells: 1}}}
	e := newEngine(t, cfg, terms, "uncoded")
	if err := e.RunFrames(2); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTerminal(Terminal{ID: "b", Beam: 1, Model: CBR{Cells: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTerminal(Terminal{ID: "a", Beam: 0, Model: CBR{Cells: 1}}); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if err := e.AddTerminal(Terminal{ID: "c", Beam: 9, Model: CBR{Cells: 1}}); err == nil {
		t.Fatal("out-of-range beam accepted")
	}
	if err := e.RunFrames(3); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveTerminal("b"); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveTerminal("b"); err == nil {
		t.Fatal("double leave accepted")
	}
	if err := e.RunFrames(2); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if len(r.PerTerminal) != 2 {
		t.Fatalf("%d report rows, want 2", len(r.PerTerminal))
	}
	b := r.PerTerminal[1]
	if b.ID != "b" {
		t.Fatalf("second row %q", b.ID)
	}
	if b.GrantedCells != 3*2 {
		t.Fatalf("b granted %d cells over its 3 active frames, want 6", b.GrantedCells)
	}
	if b.DeliveredBits == 0 {
		t.Fatal("b's queued packets vanished on leave")
	}
	if got := len(e.Terminals()); got != 1 {
		t.Fatalf("%d active terminals", got)
	}
}

// Determinism survives population churn: two engines applying the same
// mutations at the same frame boundaries agree on every metric.
func TestMutationDeterministic(t *testing.T) {
	mk := func() *Report {
		cfg := DefaultConfig()
		cfg.Frame = smallFrame(2, 2)
		cfg.Verify = true
		cfg.EbN0dB = 8
		cfg.Seed = 3
		terms := []Terminal{{ID: "a", Beam: 0, Model: CBR{Cells: 1}}}
		e := newEngine(t, cfg, terms, "conv-r1/2-k9")
		if err := e.RunFrames(2); err != nil {
			t.Fatal(err)
		}
		if err := e.AddTerminal(Terminal{ID: "b", Beam: 1, Model: OnOff{On: 2, Off: 1, Cells: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := e.RunFrames(2); err != nil {
			t.Fatal(err)
		}
		if err := e.RemoveTerminal("a"); err != nil {
			t.Fatal(err)
		}
		if err := e.RunFrames(2); err != nil {
			t.Fatal(err)
		}
		r := e.Report()
		r.WallSeconds = 0
		return r
	}
	a, b := mk(), mk()
	if a.String() != b.String() {
		t.Fatalf("runs diverged:\n%v\nvs\n%v", a, b)
	}
}

// SetTerminalChannel re-resolves the payload sync chain mid-run in both
// directions.
func TestSetTerminalChannelResolvesSync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	terms := []Terminal{{ID: "a", Beam: 0, Model: CBR{Cells: 1}}}
	e := newEngine(t, cfg, terms, "conv-r1/2-k9")
	pl := e.pl
	if pl.SyncConfig() != (modem.SyncConfig{}) {
		t.Fatal("clean engine booted with the full chain")
	}
	if err := e.SetTerminalChannel("a", &ChannelProfile{CFO: 0.05}); err != nil {
		t.Fatal(err)
	}
	if pl.SyncConfig() == (modem.SyncConfig{}) {
		t.Fatal("impairing profile did not engage the sync chain")
	}
	if err := e.SetTerminalChannel("a", nil); err != nil {
		t.Fatal(err)
	}
	if pl.SyncConfig() != (modem.SyncConfig{}) {
		t.Fatal("cleared profile did not restore the legacy chain")
	}
	if err := e.SetTerminalChannel("ghost", nil); err == nil {
		t.Fatal("unknown terminal accepted")
	}
}

// A Doppler ramp installed mid-run anchors at its installation frame:
// the estimated CFO starts at the profile's CFO and ramps from there,
// with no retroactive Drift×frames jump.
func TestMidRunDriftAnchorsAtInstallFrame(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.EbN0dB = 9
	cfg.Seed = 9
	terms := []Terminal{
		{ID: "a", Beam: 0, Model: CBR{Cells: 1}},
		{ID: "b", Beam: 1, Model: CBR{Cells: 1}},
	}
	e := newEngine(t, cfg, terms, "conv-r1/2-k9")
	if err := e.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	if err := e.SetTerminalChannel("a", &ChannelProfile{CFO: 0.05, Drift: 0.01, Timing: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.UplinkFailures != 0 || r.UplinkBitErrs != 0 {
		t.Fatalf("ramped uplink not clean: %+v", r)
	}
	// Frames 4..7 carry offsets 0.05 + 0.01*{0,1,2,3}: mean 0.065. The
	// old absolute anchoring would have injected 0.05 + 0.01*{4..7}
	// (mean 0.105) — well outside the estimator tolerance band.
	a := r.PerTerminal[0]
	// Only the 4 impaired frames produce nonzero estimates; the first 4
	// rode the legacy chain (estimates pinned 0), so the mean over
	// estimating bursts is checked via MaxAbsCFO and MeanAbsCFO bounds.
	if a.MaxAbsCFO > 0.09 {
		t.Fatalf("max |CFO| estimate %.4f: ramp anchored retroactively", a.MaxAbsCFO)
	}
	if a.MaxAbsCFO < 0.07 || a.MaxAbsCFO > 0.09 {
		t.Fatalf("max |CFO| estimate %.4f, want ~0.08 (ramp end)", a.MaxAbsCFO)
	}
}

// Queue depth and policy changes take effect at the next frame; a
// shrink never evicts queued packets.
func TestSetQueueDepthAndPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.QueueDepth = 3
	cfg.Seed = 5
	terms := []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 2}},
		{ID: "t1", Beam: 0, Model: CBR{Cells: 2}},
	}
	e := newEngine(t, cfg, terms, "uncoded")
	if err := e.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	if hw := e.Report().QueueHighWater[0]; hw != 3 {
		t.Fatalf("beam 0 high water %d before the change, want the old bound 3", hw)
	}
	if err := e.SetQueueDepth(0); err == nil {
		t.Fatal("zero depth accepted")
	}
	if err := e.SetQueueDepth(6); err != nil {
		t.Fatal(err)
	}
	e.SetQueuePolicy(Backpressure)
	dropsBefore := e.Report().DroppedQueue
	if err := e.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.DroppedQueue != dropsBefore {
		t.Fatalf("backpressure still dropped (%d -> %d)", dropsBefore, r.DroppedQueue)
	}
	if r.ThrottledCells == 0 {
		t.Fatal("backpressure never throttled after the policy change")
	}
	if hw := r.QueueHighWater[0]; hw <= 3 || hw > 6 {
		t.Fatalf("high water %d after deepening to 6", hw)
	}
}
