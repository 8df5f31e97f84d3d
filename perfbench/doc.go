// Command perfbench is the payload simulator's benchmark of record: the
// closed-loop DEMUX → DEMOD → DECOD → switch → MUX engine measured end
// to end and layer by layer on three workloads.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the harness from source (caches under .bench_build/) and
// runs it. Each run prints a host record (num_cpu, GOMAXPROCS, Go
// version, commit), the simulated-statistics fingerprint, every metric
// by name with its unit, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1
// they are the per-layer ones from a traced run. No run claims a gain:
// comparing two commits is the caller's business (spread.py prints the
// repeat-run quartile spread the stability bounds refer to).
//
// The harness drives the simulator only through its public functions
// (scenario.NewSession / Session.Step, campaign.Execute and the module
// calls the replay names) and runs the program as shipped: sessions keep
// their spec's pipeline mode (auto: pipelined when GOMAXPROCS > 1). The
// load comes from this one process; a GOMAXPROCS above the CPUs the
// process may use is refused, so an oversubscribed width never passes
// for a result.
//
// # Workloads
//
// All three are closed loops: a session's next frame is stepped only
// when the previous Step returned. --seed replaces the preset's traffic
// seed on clean and megapop; ebn0-sweep keeps the golden campaign's own
// master seed (see below).
//
// clean — the clean preset (3 carriers × 4 slots × 320-symbol slots,
// conv K=9 codec, mixed CBR/on-off/hotspot population on ideal channels
// at 9 dB) free-running through one Session.Step loop with ground verify
// on. It is the DSP-kernel workload: uplink modulate/channel, burst
// demod and Viterbi decode, the downlink DUC bank and the ground
// verify's DDC bank, demod and decode. The sync chain is off (no
// impaired terminal) and the switch is nearly idle, so a sync-chain or
// aggregate-population optimisation should show no change here. Stresses
// fec, modem, dsp, frontend and payload; bypasses the sync chain,
// aggregate admission and campaign.
//
// megapop — the megapop preset: 120 000 members in four aggregate
// populations, 24 tracer terminals, 6 beams, strict priority with a
// one-slot best-effort floor. Uplink receive is light (only tracers
// synthesize bursts); the 6-carrier DUC bank and the verify over it
// dominate, and the switch's route and schedule run ten times the
// clean workload's work. A receive-side gain should barely move it; a
// MUX/DUC or switchfab gain should show most here. Stresses frontend
// (mux, dac, demux), payload transmit, switchfab and traffic admission;
// bypasses the sync chain and campaign.
//
// ebn0-sweep — the golden ebn0-sweep campaign (impaired preset × 4
// uplink Eb/N0 points × 8 seeds = 32 sessions of 40 frames) through
// campaign.Execute with 2 workers, repeated a whole number of times
// per run (as many as fit the run's seconds, at least one). It is the
// only workload on the full sync chain (CFO periodogram, unique-word
// candidate search, phase tracking), the only
// one with real decode failures (the 3 dB waterfall), and the only one
// with many short sessions, so set-up and teardown are paid 32 times per
// campaign and parallelism runs across sessions rather than within a
// frame. A within-frame pool or pipeline change that costs fleet
// throughput shows here and not in the other two. Stresses modem sync,
// fec decode under errors, scenario set-up and campaign; bypasses
// aggregate populations and strict-priority scheduling.
//
// ebn0-sweep runs at the campaign's own master seed, whatever --seed
// says, because its gates hold there and not at every seed: at about one
// master seed in ten, one uplink burst of one 6 dB run loses sync
// mid-burst (a CFO false lock or a phase slip) and is delivered with
// about half its bits wrong, which lifts that run's BER above the 2e-3
// gate. Reproduce with `go run ./cmd/fleet -preset ebn0-sweep -seed 202`.
//
// # End-to-end metrics (--trace 0)
//
//	frames_per_s           simulated frames per host second: steady-state
//	                       Step loop (clean, megapop); all frames of the
//	                       campaigns over their wall time (ebn0-sweep)
//	frame_ms_p50, _p90     host time per Session.Step over steady frames;
//	                       on ebn0-sweep, percentiles over runs of each run's
//	                       mean steady Step time (timed between the run's frame
//	                       observers), because two concurrent sessions make the
//	                       pooled per-frame distribution multimodal
//	run_s_p50              clean, megapop: wall time of consecutive
//	                       40-frame blocks (the preset's scripted length)
//	                       of steady frames; ebn0-sweep: per-run
//	                       campaign.RunOutcome.Duration
//	setup_s                median over 5 sessions of construction plus 5
//	                       warm-up frames; ebn0-sweep: median per run of the
//	                       time outside steady frames (construction, warm-up,
//	                       drain, teardown)
//	allocs_per_frame       runtime.MemStats deltas over the measured frames
//	alloc_bytes_per_frame  (ebn0-sweep: over whole campaigns)
//	heap_peak_mb           peak live heap: clean, megapop after a forced GC
//	                       at each of 48 untimed frames after the timed loop;
//	                       ebn0-sweep as the GC cycles marked it, sampled at
//	                       every frame boundary of every run
//	delivered_ratio        1 − fail_ratio, where fail_ratio = (uplink
//	                       failures + downlink lost) / (uplink bursts +
//	                       downlink bursts), failed campaign runs counted
//	                       against the runs attempted. Published as the
//	                       complement because fail_ratio is 0 on clean and
//	                       megapop, and a bound relative to 0 means nothing.
//
// # Per-layer metrics (--trace 1)
//
// The traced run measures, in order: an untraced phase and a traced
// phase at full width (tracing_overhead is the share of frames_per_s the
// tracing costs), a traced phase at GOMAXPROCS=1, and the module replay.
// On ebn0-sweep it first runs one whole campaign (worker busy share,
// correctness); its traced phases step the campaign's own run specs,
// the first seed of each Eb/N0 point, because stage timers attach to a
// session before its first frame and campaign.Execute builds its
// sessions internally.
//
// From the engine's own timers (traffic.NewStageTimers and
// traffic.NewPipelineTimers, attached by scenario.TelemetryObserver),
// ms per frame, full width; the end-to-end metric each should move and
// the workload where it should show:
//
//	traffic.synthesis_ms, traffic.receive_ms    frame_ms_p50 on clean
//	traffic.transmit_ms, traffic.verify_ms,
//	traffic.schedule_ms                         frame_ms_p50 on megapop
//	traffic.pipeline_overlap_ms,
//	traffic.pipeline_stall_ms                   frames_per_s on clean, megapop
//	scenario.step_overhead_ms                   Step wall time minus the
//	                                            stages on the control thread
//	                                            (all workloads)
//	traffic.width1_frame_ms, traffic.other_ms   the layer-sum check below
//
// From timed calls into each module's public functions, replayed per
// frame at the workload's own shapes (frame geometry, codec, sync chain,
// channel profiles, scheduler) and per-frame counts (uplink bursts,
// downlink bursts, fabric routes as the measured sessions showed); each
// layer reports <layer>_ms per frame and <layer>_calls per frame:
//
//	frontend.demux (Demux.Process)              clean, megapop
//	modem.demod (BurstDemodulator.Demodulate)   clean, ebn0-sweep; with
//	                                            modem.sync_lock_ratio
//	                                            (found / attempted) on ebn0-sweep
//	fec.decode (Codec.Decode)                   clean, ebn0-sweep
//	fec.encode, modem.modulate, dsp.channel     clean
//	(Channel.Reseed + ApplyInPlace)
//	frontend.mux (Mux.ProcessInto),
//	frontend.dac (DAC.ConvertInto)              megapop
//	payload.receive (ReceiveFrameAndRouteQoS)   clean
//	payload.transmit_grid (TransmitFrameGrid)   megapop
//	switchfab.route, switchfab.schedule
//	(RoutePacket / Schedule, preset scheduler)  megapop
//	pipeline.foreach_busy_share                 frames_per_s on clean: task
//	                                            time over wall × workers of
//	                                            the synthesis fan-out
//	campaign.worker_busy_share                  frames_per_s on ebn0-sweep: run
//	                                            time over wall × 2 workers; on
//	                                            clean and megapop the lone Step
//	                                            loop's busy share
//	fail_ratio                                  the ratio behind delivered_ratio
//
// # Checks (every run)
//
//   - clean, megapop: ground verify ran and found zero bit errors, and no
//     Step failed.
//   - ebn0-sweep: every run completed, every campaign gate passed and
//     campaign.ValidateArtifact accepts the artifact.
//   - Fingerprint: the simulated statistics (frames, bursts, failures,
//     delivered packets and bits, drops, downlink loss and bit errors,
//     BER; on ebn0-sweep the campaign artifact hash too) of every session's
//     warm-up prefix, or of every campaign, must agree within the run —
//     at both widths in a traced run — and with the fingerprint earlier
//     runs of the same binary recorded for the workload and seed under
//     .bench_build/fingerprints/.
//   - Layer sum (traced runs): at GOMAXPROCS=1 the session steps
//     sequentially, and the five traffic.* stage self-times must sum to
//     the measured Step time within layerSumTolerance (5%); the
//     remainder is reported as traffic.other_ms. At full width a
//     pipelined session overlaps egress with the next ingest, so the
//     traced run reports overlap and stall instead.
//
// A failed check prints "CHECK FAILED" and sets "correct": false.
package main
