package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// warmupFrames are stepped after every session construction and count
// as set-up: they fill the FFT plans, the sync.Pool-backed modulator,
// channel and demodulator pools and both pipelined frame generations.
const warmupFrames = 5

// setupRepeats is how many sessions a set-up measurement builds; setup_s
// is their median.
const setupRepeats = 5

// presetSpec returns the named preset with the benchmark seed in place
// of the preset's own and ground verify on.
func presetSpec(name string, seed int64) (scenario.Spec, error) {
	sp, err := scenario.Preset(name)
	if err != nil {
		return sp, err
	}
	sp.Traffic.Seed = seed
	sp.Traffic.Verify = true
	return sp, nil
}

// heapTailFrames are stepped after a session's timed loop, each followed
// by a forced GC, to find the peak live heap. The allocated heap's peak
// depends on where the few GC cycles of a low-allocation run fall (on
// megapop, on the queue backlog of the hotspot cycle at that moment);
// 48 frames cover every phase of the presets' 8-frame traffic cycles.
const heapTailFrames = 48

// liveHeapTail steps the tail and returns the peak live heap in bytes.
func liveHeapTail(sess *scenario.Session) (uint64, error) {
	var peak uint64
	var m runtime.MemStats
	for i := 0; i < heapTailFrames; i++ {
		if _, err := sess.Step(); err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m)
		peak = max(peak, m.HeapAlloc)
	}
	return peak, nil
}

// liveHeapSample reads the live heap the last GC cycle marked, at no
// stop-the-world cost; a campaign allocates fast enough to run many GC
// cycles, so its peak over a run repeats without forcing any.
var liveHeapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func liveHeapNow() uint64 {
	metrics.Read(liveHeapSample)
	return liveHeapSample[0].Value.Uint64()
}

// phase steps sessions built from specs in a closed loop — the next
// frame is stepped only when the previous Step returned — and gathers
// the steady-state figures. Sessions are built in turn, cycling over
// specs until the budget is spent (at least one session each). Each starts with
// warmupFrames untimed frames; limit > 0 stops a session at that frame
// count (a campaign run's length), limit = 0 free-runs the one session
// until the budget is spent.
type phase struct {
	specs    []scenario.Spec
	limit    int
	budget   time.Duration
	setups   int  // extra set-up-only sessions built before the measured ones
	traced   bool // attach the engine's stage and pipeline timers
	heapTail bool // step the untimed live-heap tail after the timed loop
}

// phaseResult is what a phase measured.
type phaseResult struct {
	frames    int           // steady-state frames stepped
	wall      time.Duration // wall time of those frames' closed loop
	stepMs    []float64     // per-Step wall time, steady frames only
	setupS    []float64     // construction + warm-up per session
	prefixes  []simStats    // warm-up prefix fingerprints, one per session
	reports   []*traffic.Report
	mallocs   uint64 // heap allocations over the steady frames
	allocB    uint64 // heap bytes allocated over the steady frames
	heapPeak  uint64 // peak live heap over the heap tail (heapTail phases)
	pipelined bool
	stepErrs  []error
	stages    timerTotals
}

// setupSession builds one session, optionally attaches tracing, and
// steps the warm-up frames; d covers all of it.
func setupSession(spec scenario.Spec, tob *scenario.TelemetryObserver) (sess *scenario.Session, d time.Duration, err error) {
	start := time.Now()
	sess, err = scenario.NewSession(spec)
	if err != nil {
		return nil, 0, err
	}
	if tob != nil {
		tob.Attach(sess)
	}
	for i := 0; i < warmupFrames; i++ {
		if _, err := sess.Step(); err != nil {
			sess.Close()
			return nil, 0, fmt.Errorf("warm-up frame %d: %w", i, err)
		}
	}
	return sess, time.Since(start), nil
}

func (p phase) run() (*phaseResult, error) {
	pr := &phaseResult{stepMs: make([]float64, 0, 1<<14)}
	for i := 0; i < p.setups; i++ {
		sess, d, err := setupSession(p.specs[0], nil)
		if err != nil {
			return nil, err
		}
		pr.setupS = append(pr.setupS, d.Seconds())
		pr.prefixes = append(pr.prefixes, statsOf(sess.Report()))
		sess.Close()
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < len(p.specs) || time.Since(start) < p.budget; i++ {
		if err := p.session(p.specs[i%len(p.specs)], pr, start); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// session measures one session of the phase.
func (p phase) session(spec scenario.Spec, pr *phaseResult, start time.Time) error {
	var (
		tob  *scenario.TelemetryObserver
		feed bytes.Buffer
	)
	if p.traced {
		// One flush per warm-up span: the first two lines cover the
		// warm-up frames and are discarded, every later one is steady.
		tob = scenario.NewTelemetryObserver(&feed, scenario.TelemetryConfig{
			FlushEvery: warmupFrames, DisableRuntime: true, Source: "perfbench"})
	}
	sess, d, err := setupSession(spec, tob)
	if err != nil {
		return err
	}
	defer sess.Close()
	pr.setupS = append(pr.setupS, d.Seconds())
	pr.prefixes = append(pr.prefixes, statsOf(sess.Report()))
	pr.pipelined = sess.Pipelined()
	if tob != nil {
		// The prefix report drained the in-flight egress, a whole egress
		// timed as one stall; those frames' flush line is skipped too.
		for i := 0; i < warmupFrames; i++ {
			if _, err := sess.Step(); err != nil {
				return fmt.Errorf("warm-up frame %d: %w", warmupFrames+i, err)
			}
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for n := 0; p.limit == 0 || sess.Frame() < p.limit; n++ {
		// A free-running session stops when the phase budget is spent,
		// but never before it has a few steady frames to report.
		if p.limit == 0 && n >= warmupFrames && time.Since(start) >= p.budget {
			break
		}
		ts := time.Now()
		_, err := sess.Step()
		pr.stepMs = append(pr.stepMs, ms(time.Since(ts)))
		if err != nil {
			pr.stepErrs = append(pr.stepErrs, err)
			break
		}
		pr.frames++
	}
	pr.wall += time.Since(t0)
	runtime.ReadMemStats(&m1)
	pr.mallocs += m1.Mallocs - m0.Mallocs
	pr.allocB += m1.TotalAlloc - m0.TotalAlloc
	if p.heapTail {
		h, err := liveHeapTail(sess)
		if err != nil {
			pr.stepErrs = append(pr.stepErrs, err)
		}
		pr.heapPeak = max(pr.heapPeak, h)
	}
	if tob != nil {
		// Close before the report's drain, whose join would add a whole
		// egress as one stall sample.
		if err := tob.Close(); err != nil {
			return err
		}
		if err := pr.stages.addFeed(&feed); err != nil {
			return err
		}
	}
	pr.reports = append(pr.reports, sess.Report())
	return nil
}

// fps is the phase's steady-state frame rate.
func (pr *phaseResult) fps() float64 { return float64(pr.frames) / pr.wall.Seconds() }

// ledger sums the burst ledgers of the phase's sessions.
func (pr *phaseResult) ledger() linkLedger {
	var l linkLedger
	for _, r := range pr.reports {
		l.add(ledgerOf(r))
	}
	return l
}

// timerTotals accumulates engine timers over the steady flush lines of
// one or more telemetry feeds: per timer, the sum and count of the
// sampled observations.
type timerTotals map[string][2]float64

// addFeed folds a session's telemetry feed in, skipping the two warm-up
// lines.
func (tt *timerTotals) addFeed(feed *bytes.Buffer) error {
	if *tt == nil {
		*tt = timerTotals{}
	}
	sc := bufio.NewScanner(feed)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var line telemetry.Line
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("telemetry feed: %w", err)
		}
		if line.Seq < 2 {
			continue
		}
		for name, ts := range line.Timers {
			n := float64(ts.Count - ts.Dropped)
			acc := (*tt)[name]
			acc[0] += ts.Mean * n
			acc[1] += n
			(*tt)[name] = acc
		}
	}
	return sc.Err()
}

// meanMs is the named timer's mean observation in milliseconds (0 when
// it never fired).
func (tt timerTotals) meanMs(name string) float64 {
	acc := tt[name]
	if acc[1] == 0 {
		return 0
	}
	return acc[0] / acc[1] / 1e6
}

// stageNames maps the per-layer metric names onto the engine's stage
// timer keys, in frame order.
var stageNames = [][2]string{
	{"traffic.synthesis_ms", "engine.stage.synthesis_ns"},
	{"traffic.receive_ms", "engine.stage.receive_ns"},
	{"traffic.schedule_ms", "engine.stage.schedule_ns"},
	{"traffic.transmit_ms", "engine.stage.transmit_ns"},
	{"traffic.verify_ms", "engine.stage.verify_ns"},
}

// runSessionWorkload measures a free-running preset (clean, megapop):
// one Session.Step loop with ground verify on.
func runSessionWorkload(preset string, rc runConfig) (*outcome, error) {
	spec, err := presetSpec(preset, rc.seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if !rc.trace {
		pr, err := phase{specs: []scenario.Spec{spec}, budget: rc.budget(1), setups: setupRepeats - 1, heapTail: true}.run()
		if err != nil {
			return nil, err
		}
		endToEnd(out, pr, spec.Frames)
		checkSessions(out, pr)
		out.check(fingerprint(rc, preset, pr.prefixes))
		return out, nil
	}
	return out, traceSessions(out, rc, preset, []scenario.Spec{spec}, 0, nil)
}

// endToEnd sets the end-to-end metrics of an untraced session phase.
// run_s_p50 is the median wall time of consecutive spec-length blocks of
// steady frames: how long the preset's scripted run takes once warm.
func endToEnd(out *outcome, pr *phaseResult, runFrames int) {
	out.attempted += pr.frames + len(pr.stepErrs)
	out.failed += len(pr.stepErrs)
	var runs []float64
	for i := 0; i+runFrames <= len(pr.stepMs); i += runFrames {
		runs = append(runs, sum(pr.stepMs[i:i+runFrames])/1e3)
	}
	if len(runs) == 0 {
		runs = []float64{pr.wall.Seconds()}
	}
	printLoad(pr.reports)
	q := quartiles(pr.stepMs)
	fmt.Printf("frame_ms: q1=%.4f median=%.4f q3=%.4f spread=%.4f n=%d\n", q[0], q[1], q[2], spread(pr.stepMs), len(pr.stepMs))
	f := float64(pr.frames)
	out.set("frames_per_s", pr.fps(), "1/s")
	out.set("frame_ms_p50", percentile(pr.stepMs, 0.50), "ms")
	out.set("frame_ms_p90", percentile(pr.stepMs, 0.90), "ms")
	out.set("run_s_p50", median(runs), "s")
	out.set("setup_s", median(pr.setupS), "s")
	out.set("allocs_per_frame", float64(pr.mallocs)/f, "count")
	out.set("alloc_bytes_per_frame", float64(pr.allocB)/f, "B")
	out.set("heap_peak_mb", float64(pr.heapPeak)/(1<<20), "MiB")
	out.set("delivered_ratio", 1-failRatio(pr.ledger(), 0, 0), "ratio")
}

// checkSessions applies the per-session correctness checks: no failed
// Step and zero ground-verify bit errors.
func checkSessions(out *outcome, pr *phaseResult) {
	for _, err := range pr.stepErrs {
		out.check(fmt.Errorf("step: %w", err))
	}
	for i, r := range pr.reports {
		if !r.Verified {
			out.check(fmt.Errorf("session %d: ground verify did not run", i))
		}
		if r.DownlinkBitErrs != 0 {
			out.check(fmt.Errorf("session %d: %d ground-verify bit errors", i, r.DownlinkBitErrs))
		}
	}
}

// fingerprint checks that every warm-up prefix of the run reproduced the
// same simulated statistics and that they match what earlier runs of
// this binary recorded for the workload and seed.
func fingerprint(rc runConfig, workload string, prefixes []simStats) error {
	if len(prefixes) == 0 {
		return fmt.Errorf("no fingerprint taken")
	}
	if err := sameFingerprints(prefixes); err != nil {
		return err
	}
	fmt.Printf("fingerprint: %s %s\n", prefixes[0].hash(), prefixes[0])
	return recordFingerprint(rc.fpDir, fmt.Sprintf("%s-seed%d", workload, rc.seed), prefixes[0])
}

// traceSessions is the traced run over sessions built from specs (limit
// as in phase). It measures, in turn: an untraced phase and a traced
// phase at full width (their frame rates give tracing_overhead, the
// traced one the stage, pipeline and step-overhead figures), a traced
// phase at GOMAXPROCS=1 (the layer-sum check), and the per-module
// replays. extra, when set, adds the workload's own per-layer figures.
func traceSessions(out *outcome, rc runConfig, workload string, specs []scenario.Spec, limit int, extra func(*outcome)) error {
	plain, err := phase{specs: specs, limit: limit, budget: rc.budget(0.2)}.run()
	if err != nil {
		return err
	}
	traced, err := phase{specs: specs, limit: limit, budget: rc.budget(0.25), traced: true}.run()
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	seq, err := phase{specs: specs, limit: limit, budget: rc.budget(0.2), traced: true}.run()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	for _, pr := range []*phaseResult{plain, traced, seq} {
		out.attempted += pr.frames + len(pr.stepErrs)
		out.failed += len(pr.stepErrs)
		checkSessions(out, pr)
	}
	// Every session of every phase, at both widths, must reproduce the
	// same warm-up prefix per spec.
	for i := range specs {
		var fps []simStats
		for _, pr := range []*phaseResult{plain, traced, seq} {
			for j := i; j < len(pr.prefixes); j += len(specs) {
				fps = append(fps, pr.prefixes[j])
			}
		}
		name := workload
		if len(specs) > 1 {
			name = fmt.Sprintf("%s-%d", workload, i)
		}
		out.check(fingerprint(rc, name, fps))
	}

	out.set("tracing_overhead", (plain.fps()-traced.fps())/plain.fps(), "ratio")
	out.set("fail_ratio", failRatio(plain.ledger(), 0, 0), "ratio")

	frame := func(pr *phaseResult) float64 { return sum(pr.stepMs) / float64(len(pr.stepMs)) }
	stageSum := 0.0
	for _, s := range stageNames[:3] {
		stageSum += traced.stages.meanMs(s[1])
	}
	for _, s := range stageNames {
		out.set(s[0], traced.stages.meanMs(s[1]), "ms")
	}
	overlap := traced.stages.meanMs("engine.pipeline.overlap_ns")
	stall := traced.stages.meanMs("engine.pipeline.stall_ns")
	out.set("traffic.pipeline_overlap_ms", overlap, "ms")
	out.set("traffic.pipeline_stall_ms", stall, "ms")
	if traced.pipelined {
		// Egress (transmit + verify) runs on the pipeline worker; the
		// control thread's Step only waits for it at the join (stall).
		stageSum += stall
	} else {
		stageSum += traced.stages.meanMs(stageNames[3][1]) + traced.stages.meanMs(stageNames[4][1])
	}
	out.set("scenario.step_overhead_ms", frame(traced)-stageSum, "ms")

	if seq.pipelined {
		out.check(fmt.Errorf("layer sum: session at GOMAXPROCS=1 stepped pipelined"))
	}
	stages := make([]float64, len(stageNames))
	for i, s := range stageNames {
		stages[i] = seq.stages.meanMs(s[1])
	}
	other, err := checkLayerSum(frame(seq), stages, layerSumTolerance)
	out.check(err)
	out.set("traffic.width1_frame_ms", frame(seq), "ms")
	out.set("traffic.other_ms", other, "ms")

	if extra != nil {
		extra(out)
	} else {
		// A lone session loop is one worker: busy while stepping.
		out.set("campaign.worker_busy_share", sum(plain.stepMs)/ms(plain.wall), "ratio")
	}
	return replayLayers(out, rc, specs, plain)
}
