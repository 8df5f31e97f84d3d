package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// fleetWorkers is the campaign's session-level parallelism.
const fleetWorkers = 2

// runProbe times one campaign run's frames from inside its session: the
// gap between consecutive observer calls is one Session.Step plus the
// session's run-loop bookkeeping.
type runProbe struct {
	last     time.Time
	steadyMs []float64
}

// fleetProbe instruments campaign.Execute through its public hooks: a
// session option installs a per-run frame observer, OnRun collects the
// finished runs.
type fleetProbe struct {
	mu       sync.Mutex
	runs     map[int64]*runProbe // by run seed, unique within a campaign
	heapPeak uint64

	// Filled by OnRun, which the runner serializes.
	runS      []float64
	runStepMs []float64 // per run: mean steady Step time
	setupS    []float64
	frames    int
	ledger    linkLedger
	sim       simStats // the current campaign's runs, summed
	runErrs   []error
	completed int
	reports   []*traffic.Report
}

// option is the scenario.Option every campaign session is built with.
func (fp *fleetProbe) option(s *scenario.Session) {
	rp := &runProbe{last: time.Now(), steadyMs: make([]float64, 0, 64)}
	fp.mu.Lock()
	fp.runs[s.Spec().Traffic.Seed] = rp
	fp.mu.Unlock()
	scenario.WithObserver(func(st scenario.FrameStats, _ func() *traffic.Report) {
		now := time.Now()
		if st.Frame >= warmupFrames {
			rp.steadyMs = append(rp.steadyMs, ms(now.Sub(rp.last)))
		}
		rp.last = now
		fp.mu.Lock()
		if h := liveHeapNow(); h > fp.heapPeak {
			fp.heapPeak = h
		}
		fp.mu.Unlock()
	})(s)
}

func (fp *fleetProbe) onRun(o campaign.RunOutcome) {
	fp.runS = append(fp.runS, o.Duration.Seconds())
	if o.Err != nil || o.Report == nil {
		fp.runErrs = append(fp.runErrs, fmt.Errorf("run %d: err=%v cancelled=%v", o.Run.Index, o.Err, o.Cancelled))
		return
	}
	fp.completed++
	fp.mu.Lock()
	rp := fp.runs[o.Run.Seed]
	fp.mu.Unlock()
	if len(rp.steadyMs) > 0 {
		fp.runStepMs = append(fp.runStepMs, sum(rp.steadyMs)/float64(len(rp.steadyMs)))
	}
	// Everything outside the steady frames: construction, warm-up,
	// the final drain and teardown.
	fp.setupS = append(fp.setupS, o.Duration.Seconds()-sum(rp.steadyMs)/1e3)
	fp.reports = append(fp.reports, o.Report)
	fp.frames += o.Report.Frames
	fp.ledger.add(ledgerOf(o.Report))
	fp.sim.add(statsOf(o.Report))
}

// fleetResult is one or more whole campaigns of the same spec.
type fleetResult struct {
	fleetProbe
	wall      time.Duration
	mallocs   uint64
	allocB    uint64
	attempted int // runs attempted
	prints    []simStats
	problems  []error
}

// runFleet executes the campaign, then repeats it to fill about budget:
// the repeat count is fixed from the first campaign's duration, so every
// run of the benchmark does the same whole number of campaigns on the
// same host, and never more than a quarter campaign beyond budget.
func runFleet(sp *campaign.Spec, budget time.Duration) (*fleetResult, error) {
	fr := &fleetResult{fleetProbe: fleetProbe{runs: map[int64]*runProbe{}}}
	cfg := campaign.Config{
		Workers:        fleetWorkers,
		OnRun:          fr.onRun,
		SessionOptions: []scenario.Option{fr.option},
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, n := 0, 1; i < n; i++ {
		start := time.Now()
		a, err := campaign.Execute(context.Background(), sp, cfg)
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		if i == 0 {
			n = max(1, int(budget.Seconds()/d.Seconds()+0.25))
		}
		fr.wall += d
		fr.attempted += a.TotalRuns
		fr.problems = append(fr.problems, checkArtifact(a))
		data, err := a.Encode()
		if err != nil {
			return nil, err
		}
		h := sha256.Sum256(data)
		fr.sim.Extra = "artifact=" + hex.EncodeToString(h[:8])
		fr.prints = append(fr.prints, fr.sim)
		fr.sim = simStats{}
	}
	runtime.ReadMemStats(&m1)
	fr.mallocs = m1.Mallocs - m0.Mallocs
	fr.allocB = m1.TotalAlloc - m0.TotalAlloc
	fr.problems = append(fr.problems, fr.runErrs...)
	return fr, nil
}

// checkArtifact applies the campaign correctness checks: every run
// completed, every gate passed, and the artifact validates.
func checkArtifact(a *campaign.Artifact) error {
	var errs []error
	if a.Cancelled || a.FailedRuns != 0 || a.CompletedRuns != a.TotalRuns {
		errs = append(errs, fmt.Errorf("campaign: %d of %d runs completed, %d failed, cancelled=%v",
			a.CompletedRuns, a.TotalRuns, a.FailedRuns, a.Cancelled))
	}
	if !a.GatesPassed {
		for _, pt := range a.Points {
			if !pt.Passed {
				errs = append(errs, fmt.Errorf("campaign: gates failed at %s", pt.Label))
			}
		}
	}
	if err := campaign.ValidateArtifact(a); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// busyShare is the share of worker time spent inside runs.
func (fr *fleetResult) busyShare() float64 {
	return sum(fr.runS) / (fr.wall.Seconds() * fleetWorkers)
}

func (fr *fleetResult) check(out *outcome, fpDir string, masterSeed int64) {
	for _, err := range fr.problems {
		out.check(err)
	}
	if err := sameFingerprints(fr.prints); err != nil {
		out.check(err)
		return
	}
	fmt.Printf("fingerprint: %s %s\n", fr.prints[0].hash(), fr.prints[0])
	out.check(recordFingerprint(fpDir, fmt.Sprintf("ebn0-sweep-seed%d", masterSeed), fr.prints[0]))
}

// runCampaignWorkload measures the golden ebn0-sweep campaign through
// campaign.Execute at its own master seed, the one its gates were
// calibrated on; --seed does not enter, because at about one other
// master seed in ten the 6 dB BER gate trips on a simulator issue (an
// undetected mid-burst sync loss; see the package documentation).
func runCampaignWorkload(rc runConfig) (*outcome, error) {
	sp, err := campaign.Preset("ebn0-sweep")
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	budget := rc.budget(1)
	if rc.trace {
		budget = 0 // one campaign; the rest of the time goes to tracing
	}
	fr, err := runFleet(&sp, budget)
	if err != nil {
		return nil, err
	}
	fr.check(out, rc.fpDir, sp.Seed)
	printLoad(fr.reports)
	out.attempted += fr.frames
	out.failed += len(fr.runErrs)
	failRuns := failRatio(fr.ledger, fr.completed, fr.attempted)
	if !rc.trace {
		out.set("frames_per_s", float64(fr.frames)/fr.wall.Seconds(), "1/s")
		// Two sessions share the CPUs, so a single frame's time depends
		// on what the other worker is doing (building, stepping, idle at
		// the campaign's tail) and the pooled per-frame distribution is
		// multimodal; its median jumps between modes from run to run. The
		// run-level mean is the steady unit here.
		out.set("frame_ms_p50", percentile(fr.runStepMs, 0.50), "ms")
		out.set("frame_ms_p90", percentile(fr.runStepMs, 0.90), "ms")
		out.set("run_s_p50", median(fr.runS), "s")
		out.set("setup_s", median(fr.setupS), "s")
		out.set("allocs_per_frame", float64(fr.mallocs)/float64(fr.frames), "count")
		out.set("alloc_bytes_per_frame", float64(fr.allocB)/float64(fr.frames), "B")
		out.set("heap_peak_mb", float64(fr.heapPeak)/(1<<20), "MiB")
		out.set("delivered_ratio", 1-failRuns, "ratio")
		return out, nil
	}
	// Stage timers attach to a built session before its first frame,
	// which campaign.Execute does not expose; the traced phases step the
	// campaign's own run specs (the first seed of every Eb/N0 point)
	// directly instead.
	ex, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	var specs []scenario.Spec
	for _, r := range ex.Runs {
		if r.Index%sp.RunsPerPoint == 0 {
			specs = append(specs, r.Spec)
		}
	}
	return out, traceSessions(out, rc, "ebn0-sweep", specs, ex.Frames, func(o *outcome) {
		o.set("campaign.worker_busy_share", fr.busyShare(), "ratio")
		o.set("fail_ratio", failRuns, "ratio")
	})
}
