package fec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// viterbiCodes are the codes the butterfly kernel is checked on against
// viterbiRef: the two UMTS K=9 codes plus small and large constraint
// lengths. Below K=8 both halves of a butterfly share one decision word,
// and K=2 is a single butterfly.
func viterbiCodes() []*ConvCode {
	return []*ConvCode{
		UMTSConvHalf(),
		UMTSConvThird(),
		NewConvCode("k2", 2, 0o3, 0o2),
		NewConvCode("k3", 3, 0o7, 0o5),
		NewConvCode("k5", 5, 0o23, 0o35),
		NewConvCode("k5-r1/4", 5, 0o25, 0o27, 0o33, 0o37),
		NewConvCode("k7", 7, 0o171, 0o133),
		NewConvCode("k7-r1/3", 7, 0o133, 0o145, 0o175),
		NewConvCode("k11", 11, 0o3345, 0o3613),
	}
}

// noisyCodeword encodes k random bits and returns the BPSK channel LLRs
// (2y/σ²) at noise deviation sigma.
func noisyCodeword(rng *rand.Rand, c *ConvCode, k int, sigma float64) []float64 {
	enc := c.Encode(randBits(rng, k))
	llr := make([]float64, len(enc))
	for i, b := range enc {
		y := 1 - 2*float64(b) + rng.NormFloat64()*sigma
		llr[i] = 2 * y / (sigma * sigma)
	}
	return llr
}

// assertMatchesRef decodes llr with both kernels over every trellis step
// (tail included) and fails on the first differing bit.
func assertMatchesRef(t *testing.T, c *ConvCode, llr []float64, what string) {
	t.Helper()
	steps := len(llr) / len(c.gens)
	got, want := viterbi(c, llr, steps), viterbiRef(c, llr, steps)
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %s (%d steps): bit %d = %d, reference %d", c.Name(), what, steps, i, got[i], want[i])
			}
		}
	}
	if dec := c.Decode(llr); !bytes.Equal(dec, want[:steps-(c.k-1)]) {
		t.Fatalf("%s %s: Decode differs from the reference prefix", c.Name(), what)
	}
}

// TestViterbiMatchesReference pins the butterfly kernel to the
// source-indexed reference bit for bit: Gaussian LLRs from clean to
// failing decodes, the same LLRs integer-rounded (many exact ties), the
// ground-verify path's saturated ±10 LLRs, all-zero LLRs (every compare
// ties) and the tail-only k = 0 block.
func TestViterbiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range viterbiCodes() {
		assertMatchesRef(t, c, make([]float64, c.EncodedLen(0)), "k=0 zeros")
		assertMatchesRef(t, c, make([]float64, c.EncodedLen(57)), "all-zero")
		for _, k := range []int{0, 1, 7, 64, 192} {
			for _, sigma := range []float64{0.3, 0.6, 0.9, 1.2, 1.5, 1.8} {
				llr := noisyCodeword(rng, c, k, sigma)
				assertMatchesRef(t, c, llr, "gaussian")

				rounded := make([]float64, len(llr))
				hard := make([]byte, len(llr))
				for i, l := range llr {
					rounded[i] = math.Round(l)
					if l < 0 {
						hard[i] = 1
					}
				}
				assertMatchesRef(t, c, rounded, "rounded")
				assertMatchesRef(t, c, HardLLR(hard), "saturated")
			}
		}
	}
}

// fuzzLLR maps one fuzz byte to an LLR: most bytes to a multiple of 1/8
// in [-16, 15.875] (so exact ties are common), a few to NaN, ±Inf and
// ±1e300.
func fuzzLLR(b byte) float64 {
	switch b {
	case 0x80:
		return math.NaN()
	case 0x81:
		return math.Inf(1)
	case 0x82:
		return math.Inf(-1)
	case 0x83:
		return 1e300
	case 0x84:
		return -1e300
	}
	return float64(int8(b)) / 8
}

// FuzzConvDecode decodes arbitrary LLR vectors on every test code: code
// sel, one LLR per data byte, cut to whole trellis steps and zero-padded
// to at least the tail. Decode must not panic and must return k bits; on
// finite input it must equal viterbiRef.
func FuzzConvDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	codes := viterbiCodes()
	for i, c := range codes {
		f.Add(byte(i), []byte{})
		f.Add(byte(i), make([]byte, c.EncodedLen(9)))
		for _, sigma := range []float64{0.3, 1.8} {
			llr := noisyCodeword(rng, c, 24, sigma)
			data := make([]byte, len(llr))
			for j, l := range llr {
				data[j] = byte(int8(max(-127, min(127, math.Round(8*l)))))
			}
			f.Add(byte(i), data)
		}
		sat := make([]byte, c.EncodedLen(24))
		for j := range sat {
			sat[j] = byte(int8(80 - 160*rng.Intn(2)))
		}
		f.Add(byte(i), sat)
	}
	f.Add(byte(0), []byte{0x80, 0x81, 0x82, 0x83, 0x84, 0x10, 0xf0, 0x81, 0x82, 0x80, 0x84, 0x83, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		c := codes[int(sel)%len(codes)]
		n := len(c.gens)
		if len(data) > 4096 {
			data = data[:4096]
		}
		steps := max(len(data)/n, c.k-1)
		llr := make([]float64, steps*n)
		finite := true
		for i := range llr {
			if i < len(data) {
				llr[i] = fuzzLLR(data[i])
			}
			finite = finite && !math.IsNaN(llr[i]) && !math.IsInf(llr[i], 0)
		}
		k := steps - (c.k - 1)
		got := c.Decode(llr)
		if len(got) != k {
			t.Fatalf("%s: decoded %d bits, want %d", c.Name(), len(got), k)
		}
		if finite {
			if want := viterbiRef(c, llr, steps)[:k]; !bytes.Equal(got, want) {
				t.Fatalf("%s: decode differs from the reference", c.Name())
			}
		}
	})
}

// TestConvDecodeAllocs pins a warm Decode at one allocation — the
// returned bit slice. The path-metric buffers and decision words come
// from the code's scratch pool; a scratch that was not reused would add
// its own allocations to every run.
func TestConvDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rng := rand.New(rand.NewSource(21))
	c := NewConvCode("alloc", 9, 0o561, 0o753)
	long, short := noisyCodeword(rng, c, 192, 0.8), noisyCodeword(rng, c, 40, 0.8)
	c.Decode(long)
	for _, llr := range [][]float64{long, short} {
		if n := testing.AllocsPerRun(50, func() { c.Decode(llr) }); n != 1 {
			t.Fatalf("%d-LLR decode allocates %v per call, want 1", len(llr), n)
		}
	}
}
