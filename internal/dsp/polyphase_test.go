package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Reference kernels: the direct forms the polyphase DUC/DDC and the
// phasor mixer replaced. The DUC zero-stuffs and filters at the output
// rate, the DDC filters every input sample and then discards all but
// every decim-th output, and both mix with per-sample NCO.Next.

func refMix(o *NCO, in Vec) Vec {
	out := NewVec(len(in))
	for i, s := range in {
		out[i] = s * o.Next()
	}
	return out
}

type refDUC struct {
	nco    *NCO
	lp     *FIR
	interp int
}

func newRefDUC(freq, cutoff float64, ntaps, interp int) *refDUC {
	return &refDUC{nco: NewNCO(freq, 0), lp: NewFIR(LowpassTaps(cutoff, ntaps)), interp: interp}
}

func (u *refDUC) process(in Vec) Vec {
	up := NewVec(len(in) * u.interp)
	for i, s := range in {
		up[i*u.interp] = s * complex(float64(u.interp), 0)
	}
	return refMix(u.nco, u.lp.Process(up))
}

type refDDC struct {
	nco           *NCO
	lp            *FIR
	decim, dPhase int
}

func newRefDDC(freq, cutoff float64, ntaps, decim int) *refDDC {
	return &refDDC{nco: NewNCO(-freq, 0), lp: NewFIR(LowpassTaps(cutoff, ntaps)), decim: decim}
}

func (d *refDDC) process(in Vec) Vec {
	filtered := d.lp.Process(refMix(d.nco, in))
	out := Vec{}
	for i, s := range filtered {
		if (d.dPhase+i)%d.decim == 0 {
			out = append(out, s)
		}
	}
	d.dPhase = (d.dPhase + len(in)) % d.decim
	return out
}

// oddChunks are the block lengths the streaming tests cut a stream
// into: odd and mixed, so the decimation phase and the filter history
// both carry across calls at every offset.
var oddChunks = []int{1, 7, 33, 129, 5, 257, 3, 511, 13}

var polyphaseShapes = []struct{ factor, ntaps int }{
	{1, 95}, {1, 30},
	{2, 95}, {2, 31}, {2, 64},
	{4, 95}, {4, 63}, {4, 96}, {4, 3},
	{8, 95}, {8, 61}, {8, 5},
}

func TestPolyphaseDUCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range polyphaseShapes {
		cutoff := 0.45 / float64(sh.factor)
		ref := newRefDUC(0.13, cutoff, sh.ntaps, sh.factor)
		duc := NewDUC(0.13, cutoff, sh.ntaps, sh.factor)
		var want, got Vec
		for _, n := range oddChunks {
			in := randVec(rng, n)
			want = append(want, ref.process(in)...)
			got = append(got, duc.ProcessInto(NewVec(duc.OutLen(n)), in)...)
		}
		if len(got) != len(want) {
			t.Fatalf("factor %d ntaps %d: %d samples, reference %d", sh.factor, sh.ntaps, len(got), len(want))
		}
		if e := rmsDiff(got, want); e > 1e-12 {
			t.Errorf("factor %d ntaps %d: RMS %.3g against the zero-stuff reference", sh.factor, sh.ntaps, e)
		}
	}
}

func TestPolyphaseDDCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range polyphaseShapes {
		cutoff := 0.45 / float64(sh.factor)
		ref := newRefDDC(0.13, cutoff, sh.ntaps, sh.factor)
		ddc := NewDDC(0.13, cutoff, sh.ntaps, sh.factor)
		var want, got Vec
		for _, n := range oddChunks {
			in := randVec(rng, n)
			predicted := ddc.OutLen(n)
			out := ddc.ProcessInto(NewVec(predicted), in)
			if len(out) != predicted {
				t.Fatalf("factor %d ntaps %d chunk %d: %d samples, OutLen said %d", sh.factor, sh.ntaps, n, len(out), predicted)
			}
			want = append(want, ref.process(in)...)
			got = append(got, out...)
		}
		if len(got) != len(want) {
			t.Fatalf("factor %d ntaps %d: %d samples, reference %d", sh.factor, sh.ntaps, len(got), len(want))
		}
		if e := rmsDiff(got, want); e > 1e-12 {
			t.Errorf("factor %d ntaps %d: RMS %.3g against the full-rate reference", sh.factor, sh.ntaps, e)
		}
	}
}

// TestNCOMixIntoMatchesNext runs the phasor mixer and per-sample Next
// side by side over a million samples, retuning and nudging the phase
// between blocks: every output must agree to 1e-12 and the phase
// accumulators must stay bit-identical.
func TestNCOMixIntoMatchesNext(t *testing.T) {
	const total = 1_000_000
	rng := rand.New(rand.NewSource(23))
	mix, ref := NewNCO(0.0371, 0.4), NewNCO(0.0371, 0.4)
	ones := NewVec(1 << 17) // long calls, so drift between re-anchors would show
	for i := range ones {
		ones[i] = 1
	}
	dst := NewVec(len(ones))
	var worst float64
	for done, call := 0, 0; done < total; call++ {
		n := min(1+rng.Intn(len(ones)), total-done)
		switch call % 3 {
		case 1:
			f := rng.Float64() - 0.5
			mix.SetFreq(f)
			ref.SetFreq(f)
		case 2:
			dp := 4 * (rng.Float64() - 0.5)
			mix.AdjustPhase(dp)
			ref.AdjustPhase(dp)
		}
		got := mix.MixInto(dst, ones[:n])
		for _, s := range got {
			worst = math.Max(worst, cmplx.Abs(s-ref.Next()))
		}
		if mix.Phase() != ref.Phase() {
			t.Fatalf("call %d: phase %v, per-sample Next reached %v", call, mix.Phase(), ref.Phase())
		}
		done += n
	}
	if worst > 1e-12 {
		t.Fatalf("phasor mixer deviates from per-sample Next by %.3g", worst)
	}
}

// Micro-benchmarks at the engine's shape (95 taps, factor 4, one
// 5200-sample carrier block): the polyphase kernels and the phasor
// mixer against the direct-form references they replaced. The warm
// kernels' zero-allocation contract is pinned by the ProcessInto alloc
// tests in inplace_test.go.

// benchSink keeps the reference kernels' results live.
var benchSink Vec

func BenchmarkDUC(b *testing.B) {
	in := randVec(rand.New(rand.NewSource(25)), 5200)
	b.Run("polyphase", func(b *testing.B) {
		duc := NewDUC(0.1, 0.05, 95, 4)
		dst := NewVec(duc.OutLen(len(in)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			duc.ProcessInto(dst, in)
		}
	})
	b.Run("reference", func(b *testing.B) {
		ref := newRefDUC(0.1, 0.05, 95, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = ref.process(in)
		}
	})
}

func BenchmarkDDC(b *testing.B) {
	in := randVec(rand.New(rand.NewSource(26)), 4*5200)
	b.Run("polyphase", func(b *testing.B) {
		ddc := NewDDC(0.1, 0.05, 95, 4)
		dst := NewVec(len(in))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ddc.ProcessInto(dst, in)
		}
	})
	b.Run("reference", func(b *testing.B) {
		ref := newRefDDC(0.1, 0.05, 95, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = ref.process(in)
		}
	})
}

func BenchmarkNCOMix(b *testing.B) {
	in := randVec(rand.New(rand.NewSource(27)), 4*5200)
	dst := NewVec(len(in))
	b.Run("phasor", func(b *testing.B) {
		o := NewNCO(0.1, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.MixInto(dst, in)
		}
	})
	b.Run("reference", func(b *testing.B) {
		o := NewNCO(0.1, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, s := range in {
				dst[j] = s * o.Next()
			}
		}
	})
}
