package traffic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dsp"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/payload"
)

// smallFrame keeps the per-test work down: 2 carriers x 2 slots, slots
// just big enough for the default 248-symbol burst plus flush.
func smallFrame(carriers, slots int) modem.FrameConfig {
	return modem.FrameConfig{Carriers: carriers, Slots: slots, SlotSymbols: 320, GuardSymbols: 16}
}

func bootPayload(t testing.TB, carriers int, codecName string) *payload.Payload {
	t.Helper()
	cfg := payload.DefaultConfig()
	cfg.Carriers = carriers
	pl, err := payload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec(codecName); err != nil {
		t.Fatal(err)
	}
	return pl
}

func newEngine(t testing.TB, cfg Config, terminals []Terminal, codecName string) *Engine {
	t.Helper()
	pl := bootPayload(t, cfg.Frame.Carriers, codecName)
	e, err := New(pl, cfg, terminals)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestModels(t *testing.T) {
	cbr := CBR{Cells: 3}
	for f := 0; f < 5; f++ {
		if cbr.Demand(f) != 3 {
			t.Fatal("CBR must be constant")
		}
	}
	oo := OnOff{On: 2, Off: 3, Cells: 4}
	var got []int
	for f := 0; f < 10; f++ {
		got = append(got, oo.Demand(f))
	}
	want := []int{4, 4, 0, 0, 0, 4, 4, 0, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OnOff demand %v, want %v", got, want)
	}
	hs := Hotspot{Base: 1, Surge: 6, Period: 4, Width: 1}
	got = got[:0]
	for f := 0; f < 8; f++ {
		got = append(got, hs.Demand(f))
	}
	want = []int{6, 1, 1, 1, 6, 1, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Hotspot demand %v, want %v", got, want)
	}
}

func TestInfoBitsFor(t *testing.T) {
	pl := bootPayload(t, 1, "conv-r1/2-k9")
	codec, err := pl.Codec()
	if err != nil {
		t.Fatal(err)
	}
	budget := pl.BurstFormat().PayloadBits()
	k := InfoBitsFor(codec, budget)
	if codec.EncodedLen(k) > budget {
		t.Fatalf("k=%d does not fit the %d-bit budget", k, budget)
	}
	if codec.EncodedLen(k+8) <= budget {
		t.Fatalf("k=%d is not maximal", k)
	}
}

func TestEngineValidation(t *testing.T) {
	pl := bootPayload(t, 2, "uncoded")
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	ok := []Terminal{{ID: "t0", Beam: 0, Model: CBR{Cells: 1}}}
	cases := []struct {
		name  string
		cfg   Config
		terms []Terminal
	}{
		{"no terminals", cfg, nil},
		{"bad beam", cfg, []Terminal{{ID: "t0", Beam: 2, Model: CBR{Cells: 1}}}},
		{"dup id", cfg, []Terminal{{ID: "t0", Beam: 0, Model: CBR{Cells: 1}}, {ID: "t0", Beam: 1, Model: CBR{Cells: 1}}}},
		{"nil model", cfg, []Terminal{{ID: "t0", Beam: 0}}},
	}
	for _, tc := range cases {
		if _, err := New(pl, tc.cfg, tc.terms); err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
	}
	bad := cfg
	bad.QueueDepth = 0
	if _, err := New(pl, bad, ok); err == nil {
		t.Fatal("queue depth 0: no error")
	}
	bad = cfg
	bad.Frame.Carriers = 3 // exceeds the 2-carrier payload
	if _, err := New(pl, bad, ok); err == nil {
		t.Fatal("carrier overflow: no error")
	}
	if _, err := New(pl, cfg, ok); err != nil {
		t.Fatalf("valid engine rejected: %v", err)
	}
}

// The closed loop at high SNR must deliver every queued bit unchanged:
// uplink decode exact, downlink ground demodulation exact, no drops.
func TestEngineClosedLoopBitExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.Verify = true
	cfg.EbN0dB = 9
	cfg.Seed = 7
	terms := []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 1}},
		{ID: "t1", Beam: 1, Model: CBR{Cells: 1}},
	}
	e := newEngine(t, cfg, terms, "conv-r1/2-k9")
	if err := e.RunFrames(8); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.UplinkFailures != 0 || r.UplinkBitErrs != 0 {
		t.Fatalf("uplink not clean: %d failures, %d bit errors", r.UplinkFailures, r.UplinkBitErrs)
	}
	if r.DownlinkLost != 0 || r.DownlinkBitErrs != 0 {
		t.Fatalf("downlink not clean: %d lost, %d bit errors", r.DownlinkLost, r.DownlinkBitErrs)
	}
	if r.DroppedQueue != 0 || r.DroppedReencode != 0 {
		t.Fatalf("unexpected drops: %d queue, %d re-encode", r.DroppedQueue, r.DroppedReencode)
	}
	// 2 cells granted per frame, all delivered (the last frame's uplink
	// packets are still queued when the run stops).
	if r.GrantedCells != 16 {
		t.Fatalf("granted %d cells, want 16", r.GrantedCells)
	}
	if r.DeliveredPackets == 0 || r.DeliveredBits == 0 {
		t.Fatal("nothing delivered")
	}
	if r.LatencyMax > 1 {
		t.Fatalf("latency %d frames on an unloaded loop", r.LatencyMax)
	}
	for _, ts := range r.PerTerminal {
		if ts.DeliveredBits == 0 {
			t.Fatalf("terminal %s starved", ts.ID)
		}
	}
}

// The closed loop must survive per-terminal channel impairments across
// the documented acquisition range: CFO up to ±1/10 cycle/symbol,
// fractional timing offsets in [0, 1), phase offsets across (−π, π] and
// gain imbalance, at Eb/N0 >= 6 dB — zero info-bit errors end to end.
func TestEngineImpairedClosedLoopBitExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.Verify = true
	cfg.EbN0dB = 6
	cfg.Seed = 9
	terms := []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 1},
			Channel: &ChannelProfile{CFO: 0.1, Phase: math.Pi, Timing: 0.5, Gain: 0.9}},
		{ID: "t1", Beam: 1, Model: CBR{Cells: 1},
			Channel: &ChannelProfile{CFO: -0.1, Phase: -3.0, Timing: 0.9, Gain: 1.1}},
		{ID: "t2", Beam: 0, Model: CBR{Cells: 1},
			Channel: &ChannelProfile{CFO: 0.05, Drift: 0.002, Phase: 1.3, Timing: 0.25}},
	}
	e := newEngine(t, cfg, terms, "conv-r1/2-k9")
	if e.pl.SyncConfig() == (modem.SyncConfig{}) {
		t.Fatal("impaired population must enable the sync chain")
	}
	if err := e.RunFrames(10); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.UplinkFailures != 0 || r.UplinkBitErrs != 0 {
		t.Fatalf("uplink not clean under impairments: %d failures, %d bit errors", r.UplinkFailures, r.UplinkBitErrs)
	}
	if r.DownlinkLost != 0 || r.DownlinkBitErrs != 0 {
		t.Fatalf("downlink not clean: %d lost, %d bit errors", r.DownlinkLost, r.DownlinkBitErrs)
	}
	// The sync stats must reflect the injected CFOs; the drifting
	// terminal's expectation averages its Doppler ramp over the run.
	for i, ts := range r.PerTerminal {
		prof := terms[i].Channel
		want := 0.0
		for f := 0; f < 10; f++ {
			want += math.Abs(prof.CFO + prof.Drift*float64(f))
		}
		want /= 10
		if ts.SyncBursts == 0 {
			t.Fatalf("terminal %s has no sync stats", ts.ID)
		}
		if math.Abs(ts.MeanAbsCFO-want) > 0.01 {
			t.Fatalf("terminal %s mean |CFO| estimate %.4f, injected %.4f", ts.ID, ts.MeanAbsCFO, want)
		}
	}
}

// A clean population must keep the payload on the legacy UW-phase-only
// chain — the frequency estimator stays dead code, every receipt reports
// a zero CFO estimate, and the run is bit-identical to engines predating
// channel profiles (same demod math, same channel synthesis path).
func TestEngineCleanChannelSyncInert(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.Verify = true
	cfg.EbN0dB = 8
	cfg.Seed = 3
	terms := []Terminal{
		{ID: "a", Beam: 0, Model: CBR{Cells: 1}},
		{ID: "b", Beam: 1, Model: CBR{Cells: 1}},
	}
	e := newEngine(t, cfg, terms, "conv-r1/2-k9")
	if e.pl.SyncConfig() != (modem.SyncConfig{}) {
		t.Fatal("clean population must keep the boot sync config")
	}
	if err := e.RunFrames(6); err != nil {
		t.Fatal(err)
	}
	for _, ts := range e.Report().PerTerminal {
		if ts.MeanAbsCFO != 0 || ts.MaxAbsCFO != 0 {
			t.Fatalf("terminal %s reports CFO estimates on a clean channel: %+v", ts.ID, ts)
		}
		if ts.SyncBursts == 0 || ts.MinUWMetric <= modem.DefaultUWThreshold {
			t.Fatalf("terminal %s sync stats implausible: %+v", ts.ID, ts)
		}
	}
}

// One engine's sync chain must not leak into the next
// engine sharing the payload: an impaired run flips the payload onto
// the full chain, and a subsequent clean-population engine restores the
// legacy chain.
func TestSyncConfigDoesNotLeakAcrossEngines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	pl := bootPayload(t, 2, "conv-r1/2-k9")
	impaired := []Terminal{{ID: "a", Beam: 0, Model: CBR{Cells: 1},
		Channel: &ChannelProfile{CFO: 0.05, Phase: 1.0}}}
	clean := []Terminal{{ID: "a", Beam: 0, Model: CBR{Cells: 1}}}

	if _, err := New(pl, cfg, impaired); err != nil {
		t.Fatal(err)
	}
	if pl.SyncConfig() == (modem.SyncConfig{}) {
		t.Fatal("impaired engine must enable the sync chain")
	}
	if _, err := New(pl, cfg, clean); err != nil {
		t.Fatal(err)
	}
	if pl.SyncConfig() != (modem.SyncConfig{}) {
		t.Fatalf("clean engine kept the previous engine's sync chain: %+v", pl.SyncConfig())
	}

	// The engine always resolves the chain: a config set on the payload
	// directly lasts only until the next engine (or population change).
	pl.SetSyncConfig(modem.SyncConfig{UWThreshold: 0.8, FreqRecovery: true})
	if _, err := New(pl, cfg, clean); err != nil {
		t.Fatal(err)
	}
	if pl.SyncConfig() != (modem.SyncConfig{}) {
		t.Fatalf("clean engine kept a stale sync config: %+v", pl.SyncConfig())
	}
}

// An all-idle downlink frame is legal silence: the channel must not
// substitute full-power noise for it (the old p==1 fallback), and a
// ground receiver scanning every (carrier, slot) cell must not declare
// a single burst.
func TestAllIdleFrameNoSpuriousBursts(t *testing.T) {
	pl := bootPayload(t, 2, "uncoded")
	fcfg := smallFrame(2, 2)
	plan := DefaultPlan(fcfg.Carriers)
	tx := payload.NewTransmitter(pl, plan)
	grid := make([][][]byte, fcfg.Carriers)
	for c := range grid {
		grid[c] = make([][]byte, fcfg.Slots)
	}
	wide, err := tx.TransmitFrameGrid(fcfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	// The space-ground channel still runs at a finite Es/N0; silence in
	// must stay silence out.
	ch := dsp.NewChannelWith(5, 10, plan.Decim)
	rx := ch.Apply(wide)
	for _, v := range rx {
		if v != 0 {
			t.Fatal("silent frame picked up noise from the zero-power fallback")
		}
	}
	demux := frontend.NewDemux(plan, 95)
	split := demux.Process(rx)
	dem := modem.NewBurstDemodulator(pl.BurstFormat(), 0.35, plan.Decim, 10, modem.TimingOerderMeyr)
	slotLen := fcfg.SlotSymbols * plan.Decim
	for c := 0; c < fcfg.Carriers; c++ {
		for s := 0; s < fcfg.Slots; s++ {
			end := (s + 1) * slotLen
			if end > len(split[c]) {
				end = len(split[c])
			}
			res := dem.Demodulate(split[c][s*slotLen : end])
			if res.Found {
				t.Fatalf("spurious burst detected at carrier %d slot %d (uw %.2f)", c, s, res.UWMetric)
			}
		}
	}
}

// Two engines with identical configuration and seed must agree on every
// metric — the deterministic-run contract.
func TestEngineDeterministic(t *testing.T) {
	mk := func() *Report {
		cfg := DefaultConfig()
		cfg.Frame = smallFrame(2, 2)
		cfg.Verify = true
		cfg.EbN0dB = 8
		cfg.Seed = 3
		terms := []Terminal{
			{ID: "a", Beam: 0, Model: CBR{Cells: 1}},
			{ID: "b", Beam: 1, Model: OnOff{On: 2, Off: 1, Cells: 2}},
			{ID: "c", Beam: 1, Model: Hotspot{Base: 0, Surge: 2, Period: 3, Width: 1}},
		}
		e := newEngine(t, cfg, terms, "conv-r1/2-k9")
		if err := e.RunFrames(6); err != nil {
			t.Fatal(err)
		}
		r := e.Report()
		r.WallSeconds = 0 // the only non-deterministic field
		return r
	}
	if a, b := mk(), mk(); !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged:\n%v\nvs\n%v", a, b)
	}
}

// A beam offered more than its downlink can carry must fill its bounded
// queue to the high-water mark and then drop, never grow past the bound.
func TestEngineQueueBoundAndDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.QueueDepth = 3
	cfg.Seed = 5
	// Both terminals target beam 0: 4 cells/frame in, 2 slots/frame out.
	terms := []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 2}},
		{ID: "t1", Beam: 0, Model: CBR{Cells: 2}},
	}
	e := newEngine(t, cfg, terms, "uncoded")
	if err := e.RunFrames(10); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.QueueHighWater[0] != cfg.QueueDepth {
		t.Fatalf("beam 0 high water %d, want %d", r.QueueHighWater[0], cfg.QueueDepth)
	}
	if r.DroppedQueue == 0 {
		t.Fatal("overloaded beam dropped nothing")
	}
	if e.QueueDepth(0) > cfg.QueueDepth {
		t.Fatalf("queue grew past the bound: %d", e.QueueDepth(0))
	}
	if r.QueueHighWater[1] != 0 {
		t.Fatalf("idle beam 1 has high water %d", r.QueueHighWater[1])
	}
}

// Backpressure throttles the same overload at the source instead of
// dropping in the sky.
func TestEngineBackpressureThrottles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.QueueDepth = 3
	cfg.Policy = Backpressure
	cfg.Seed = 5
	terms := []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 2}},
		{ID: "t1", Beam: 0, Model: CBR{Cells: 2}},
	}
	e := newEngine(t, cfg, terms, "uncoded")
	if err := e.RunFrames(10); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.ThrottledCells == 0 {
		t.Fatal("backpressure never throttled an overloaded beam")
	}
	if r.DroppedQueue != 0 {
		t.Fatalf("admission control still dropped %d packets in the sky", r.DroppedQueue)
	}
	if e.QueueDepth(0) > cfg.QueueDepth {
		t.Fatalf("queue grew past the bound: %d", e.QueueDepth(0))
	}
}

// Frames served while the coding function is down are outages: traffic
// pauses, nothing is lost from the queues, and service resumes.
func TestEngineOutageAndRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.Seed = 11
	terms := []Terminal{{ID: "t0", Beam: 0, Model: CBR{Cells: 1}}}
	pl := bootPayload(t, 2, "uncoded")
	e, err := New(pl, cfg, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunFrames(2); err != nil {
		t.Fatal(err)
	}
	queued := e.QueueDepth(0)

	var dev string
	for _, d := range pl.Chipset().DevicesFor(payload.FuncCoding) {
		dev = d
	}
	d, _ := pl.Chipset().Device(dev)
	d.PowerOff()
	if err := e.RunFrames(3); err != nil {
		t.Fatal(err)
	}
	if got := e.Report().OutageFrames; got != 3 {
		t.Fatalf("%d outage frames, want 3", got)
	}
	if e.QueueDepth(0) != queued {
		t.Fatalf("queue changed during the outage: %d -> %d", queued, e.QueueDepth(0))
	}
	d.PowerOn()
	if err := e.RunFrames(2); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.OutageFrames != 3 {
		t.Fatalf("outage frames kept counting: %d", r.OutageFrames)
	}
	if r.DeliveredPackets == 0 {
		t.Fatal("no delivery after recovery")
	}
}
