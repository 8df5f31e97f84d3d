package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/traffic"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples
// for an even count; an empty slice reduces to 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile (q in [0, 1]) — the same
// selection the simulator's own stats package and telemetry use, so the
// benchmark's p90 and a telemetry p90 over the same samples agree.
func percentile(xs []float64, q float64) float64 {
	return stats.Percentile(sortedCopy(xs), q)
}

// quartiles returns the three cut points of xs in four equal groups,
// interpolated exactly as Python's statistics.quantiles(xs, n=4) does
// with its default "exclusive" method. The repeat-run spread check
// (spread.py) uses that function, so the in-run frame-time spread the
// harness prints is the same figure. Fewer than two samples return the
// lone sample (or 0) three times.
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := sortedCopy(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median — the
// figure the repeat-run stability check bounds.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// linkLedger is the burst accounting behind fail_ratio: bursts attempted
// on each link and bursts lost on each. Downlink bursts are the packets
// the transmit grid actually modulated (terminal and tracer packets);
// aggregate-population packets consume downlink slots but carry no
// waveform, so ground verify never sees them and they do not count.
type linkLedger struct {
	UplinkBursts, UplinkFailures int
	DownlinkBursts, DownlinkLost int
}

// ledgerOf reads the ledger out of a cumulative run report.
func ledgerOf(r *traffic.Report) linkLedger {
	dl := r.DeliveredPackets
	for _, p := range r.PerPopulation {
		dl -= p.DeliveredPackets
	}
	return linkLedger{
		UplinkBursts:   r.UplinkBursts,
		UplinkFailures: r.UplinkFailures,
		DownlinkBursts: dl,
		DownlinkLost:   r.DownlinkLost,
	}
}

func (l *linkLedger) add(o linkLedger) {
	l.UplinkBursts += o.UplinkBursts
	l.UplinkFailures += o.UplinkFailures
	l.DownlinkBursts += o.DownlinkBursts
	l.DownlinkLost += o.DownlinkLost
}

// failRatio is (uplink failures + downlink lost) over (uplink bursts +
// downlink bursts), with failed runs counted against the runs
// attempted: a campaign that loses runs delivers only the completed
// share of what its surviving bursts carried. Runs-level arguments of
// 0/0 mean "not a campaign" and leave the burst ratio alone.
func failRatio(l linkLedger, completedRuns, attemptedRuns int) float64 {
	attempted := l.UplinkBursts + l.DownlinkBursts
	burstFail := 0.0
	if attempted > 0 {
		burstFail = float64(l.UplinkFailures+l.DownlinkLost) / float64(attempted)
	}
	if attemptedRuns == 0 {
		return burstFail
	}
	return 1 - (1-burstFail)*float64(completedRuns)/float64(attemptedRuns)
}

// layerSumTolerance is the stated bound on the unattributed share of a
// sequentially stepped frame: at GOMAXPROCS=1 the five traffic.* stage
// self-times must account for the measured Session.Step wall time to
// within this share. What remains is the frame prologue, the per-frame
// metrics delta and the observer chain.
const layerSumTolerance = 0.05

// checkLayerSum returns the unattributed remainder frameMs − Σ stagesMs
// and an error when its magnitude exceeds tol × frameMs.
func checkLayerSum(frameMs float64, stagesMs []float64, tol float64) (otherMs float64, err error) {
	stages := sum(stagesMs)
	otherMs = frameMs - stages
	if frameMs <= 0 || math.Abs(otherMs) > tol*frameMs {
		return otherMs, fmt.Errorf("layer sum: stages %.4f ms vs frame %.4f ms leaves %.4f ms, over the %.0f%% tolerance",
			stages, frameMs, otherMs, tol*100)
	}
	return otherMs, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// simStats is the simulated-statistics fingerprint of a run prefix:
// pure functions of the code and the seed, never of the host.
type simStats struct {
	Frames, Bursts, Failures   int
	DeliveredPackets           int
	DeliveredBits, BitErrs     int
	DroppedQueue, DroppedReenc int
	DownlinkLost, DownlinkErrs int
	Extra                      string // workload-specific content, e.g. a campaign artifact hash
}

// add sums o's counts into s (a campaign's runs into one fingerprint).
func (s *simStats) add(o simStats) {
	s.Frames += o.Frames
	s.Bursts += o.Bursts
	s.Failures += o.Failures
	s.DeliveredPackets += o.DeliveredPackets
	s.DeliveredBits += o.DeliveredBits
	s.BitErrs += o.BitErrs
	s.DroppedQueue += o.DroppedQueue
	s.DroppedReenc += o.DroppedReenc
	s.DownlinkLost += o.DownlinkLost
	s.DownlinkErrs += o.DownlinkErrs
}

func statsOf(r *traffic.Report) simStats {
	return simStats{
		Frames: r.Frames, Bursts: r.UplinkBursts, Failures: r.UplinkFailures,
		DeliveredPackets: r.DeliveredPackets, DeliveredBits: r.DeliveredBits,
		BitErrs: r.UplinkBitErrs, DroppedQueue: r.DroppedQueue, DroppedReenc: r.DroppedReencode,
		DownlinkLost: r.DownlinkLost, DownlinkErrs: r.DownlinkBitErrs,
	}
}

// String renders the fingerprint's readable form; BER is uplink info-bit
// errors over uplink info bits delivered.
func (s simStats) String() string {
	ber := 0.0
	if s.DeliveredBits > 0 {
		ber = float64(s.BitErrs) / float64(s.DeliveredBits)
	}
	out := fmt.Sprintf("frames=%d bursts=%d failures=%d delivered_packets=%d delivered_bits=%d drops=%d+%d downlink_lost=%d downlink_bit_errs=%d ber=%.6g",
		s.Frames, s.Bursts, s.Failures, s.DeliveredPackets, s.DeliveredBits,
		s.DroppedQueue, s.DroppedReenc, s.DownlinkLost, s.DownlinkErrs, ber)
	if s.Extra != "" {
		out += " " + s.Extra
	}
	return out
}

// hash is the fingerprint's compact identity.
func (s simStats) hash() string {
	h := sha256.Sum256([]byte(s.String()))
	return hex.EncodeToString(h[:8])
}

// errFingerprint marks a simulated-statistics mismatch.
var errFingerprint = errors.New("fingerprint mismatch")

// sameFingerprints checks that every fingerprint taken in one run over
// the same seed agrees with the first.
func sameFingerprints(fps []simStats) error {
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			return fmt.Errorf("%w within the run: %v vs %v", errFingerprint, fps[i], fps[0])
		}
	}
	return nil
}

// recordFingerprint compares fp against the fingerprint an earlier run
// of the same binary, workload and seed left in dir, and records it when
// there is none yet — so every later run of the same code and seed must
// reproduce it exactly.
func recordFingerprint(dir, key string, fp simStats) error {
	path := filepath.Join(dir, key+".txt")
	want := fp.String() + "\n"
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != want {
			return fmt.Errorf("%w against %s: %q vs recorded %q", errFingerprint, path, want, prev)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(want), 0o644)
	default:
		return err
	}
}
