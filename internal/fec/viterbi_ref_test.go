package fec

import "math"

// viterbiRef is the source-indexed Viterbi kernel the butterfly in
// viterbi.go replaced, kept as the bit-exact reference the equivalence
// and fuzz tests compare against. It scatters each surviving (state,
// input) branch to its successor, resets the next metrics to -neg and
// the survivors to -1 every step, skips unreachable sources, and keeps
// one int32 survivor (from<<1 | bit) per state per step. Only its
// working set is allocated here instead of leased from the code's pool.
func viterbiRef(c *ConvCode, llr []float64, steps int) []byte {
	n := len(c.gens)
	states := c.NumStates()
	const neg = math.MaxFloat64 / 4
	tr := c.trellis()

	pm, next := make([]float64, states), make([]float64, states)
	for i := range pm {
		pm[i] = -neg
	}
	pm[0] = 0

	survivor := make([]int32, steps*states) // flat: survivor[t*states+to] = from<<1 | bit
	var bm [1 << maxConvOutputs]float64

	for t := 0; t < steps; t++ {
		for i := range next {
			next[i] = -neg
		}
		sv := survivor[t*states : (t+1)*states]
		for i := range sv {
			sv[i] = -1
		}
		seg := llr[t*n : (t+1)*n]
		// Score every possible output pattern once: pattern bit j clear
		// means coded bit 0 (metric +seg[j]), set means 1 (-seg[j]).
		npat := 1 << uint(n)
		for p := 0; p < npat; p++ {
			var m float64
			for j := 0; j < n; j++ {
				if p>>uint(j)&1 == 0 {
					m += seg[j]
				} else {
					m -= seg[j]
				}
			}
			bm[p] = m
		}
		for s := 0; s < states; s++ {
			if pm[s] <= -neg {
				continue
			}
			for b := 0; b < 2; b++ {
				to := int(tr.to[s<<1|b])
				m := pm[s] + bm[tr.pat[s<<1|b]]
				if m > next[to] {
					next[to] = m
					sv[to] = int32(s)<<1 | int32(b)
				}
			}
		}
		pm, next = next, pm
	}

	// Traceback from the zero state (zero-terminated encoding).
	out := make([]byte, steps)
	state := 0
	if pm[0] <= -neg {
		// Termination state unreachable (corrupted input); fall back to
		// the best metric state.
		best := 0
		for s := 1; s < states; s++ {
			if pm[s] > pm[best] {
				best = s
			}
		}
		state = best
	}
	for t := steps - 1; t >= 0; t-- {
		sv := survivor[t*states+state]
		if sv < 0 {
			break
		}
		out[t] = byte(sv & 1)
		state = int(sv >> 1)
	}
	return out
}
