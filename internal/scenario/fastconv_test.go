package scenario

import (
	"testing"

	"repro/internal/dsp"
	"repro/internal/traffic"
)

// TestPresetsFastConvolutionEquivalent runs every registered preset
// with the overlap-save fast-convolution path enabled (the default) and
// with the scalar filter loops pinned, and requires the two runs to
// agree on every integer loop outcome — burst counts, failures,
// info-bit errors, delivered/dropped packets, latency sums. The decoded
// info bits feed all of these deterministically, so agreement here is
// the closed-loop form of the ≤1e-9 RMS waveform equivalence the dsp
// tests assert: the FFT filter banks change no decoded bit on any
// preset population.
func TestPresetsFastConvolutionEquivalent(t *testing.T) {
	const frames = 4
	run := func(name string, fast bool) *traffic.Report {
		prev := dsp.SetFastConvolution(fast)
		defer dsp.SetFastConvolution(prev)
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Traffic.Verify = false
		sess, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if _, err := sess.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return sess.Report()
	}
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			fastRep := run(name, true)
			scalRep := run(name, false)
			type loopInts struct {
				bursts, failures, bitErrs          int
				granted, denied, throttled         int
				delivered, bits, dropped, reencode int
				latSum, latMax                     int
			}
			ints := func(r *traffic.Report) loopInts {
				return loopInts{
					bursts: r.UplinkBursts, failures: r.UplinkFailures, bitErrs: r.UplinkBitErrs,
					granted: r.GrantedCells, denied: r.DeniedCells, throttled: r.ThrottledCells,
					delivered: r.DeliveredPackets, bits: r.DeliveredBits,
					dropped: r.DroppedQueue, reencode: r.DroppedReencode,
					latSum: r.LatencySum, latMax: r.LatencyMax,
				}
			}
			if f, s := ints(fastRep), ints(scalRep); f != s {
				t.Fatalf("fast-convolution run diverges from scalar:\nfast:   %+v\nscalar: %+v", f, s)
			}
		})
	}
}
