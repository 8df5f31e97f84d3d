package fec

import "math"

// viterbi runs soft-decision maximum-likelihood sequence decoding over the
// trellis of c for the given number of steps, assuming the encoder started
// and ended in the all-zero state. It returns the decoded input bit per
// step (including tail steps).
//
// The trellis state is the K-1 most recent input bits (newest in the MSB);
// for input b the full register is b<<(K-1)|state and the successor state
// is that register shifted right by one. So with S = 2^(K-1) states, the
// sources 2j and 2j+1 share their two successors j (input 0) and j+S/2
// (input 1): a radix-2 butterfly.
//
// Add-compare-select is destination-indexed over those butterflies. For
// each j < S/2 it reads pm[2j] and pm[2j+1] once, adds the branch metrics
// of the four branches (trellis patterns 4j…4j+3, looked up in a per-step
// table that scores the 2^n possible output patterns against the LLR
// segment once) and writes both destinations. Each destination keeps
// max(m0, m1), where m0 comes from the even source; its decision bit is
// m1 > m0, so a tie keeps the lower predecessor, as a scan over sources
// in ascending order with a strict compare would. The select has no
// branch: on noisy LLRs the compare is a coin flip, and a mispredicted
// branch per state would cost more than the arithmetic. Nor is there a
// reachability test: the start state has metric 0 and every other state
// -neg, and -neg + bm rounds back to exactly -neg for any branch metric
// far below neg, so unreachable states stay at -neg and lose every
// compare against a reachable one.
//
// Decisions are packed one bit per destination state per step (bit d&63
// of word d>>6 of the step's ⌈S/64⌉ words; with S < 128 both halves of
// the butterfly share one word). Traceback starts from state 0: the
// input of step t is the state's MSB, and the predecessor is the state
// shifted left by one with the decision bit shifted in.
//
// Metrics stay float64 rather than quantised int32 with modular
// normalisation: quantising the LLRs would move near-tie decisions and
// with them the decoded bits every simulated outcome is pinned against.
func viterbi(c *ConvCode, llr []float64, steps int) []byte {
	n := len(c.gens)
	states := c.NumStates()
	half := states / 2
	words := c.decisionWords()
	const neg = math.MaxFloat64 / 4
	const patMask = 1<<maxConvOutputs - 1
	pat := c.trellis().pat

	vs := c.getViterbiScratch(steps)
	pm, next, dec := vs.pm, vs.next, vs.dec
	for i := range pm {
		pm[i] = -neg
	}
	pm[0] = 0

	var bm [1 << maxConvOutputs]float64
	for t := 0; t < steps; t++ {
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
		// Butterflies in chunks of 64: the chunk's lower and upper
		// decision words are built in registers and stored once (i < 64,
		// so the &63 only spares the compiler its oversized-shift check).
		d := dec[t*words : (t+1)*words]
		for j0 := 0; j0 < half; j0 += 64 {
			jn := min(j0+64, half)
			src := pm[2*j0 : 2*jn]
			pt := pat[4*j0 : 4*jn]
			lo, hi := next[j0:jn], next[half+j0:half+jn]
			var wlo, whi uint64
			for i := range lo {
				a, b := src[2*i], src[2*i+1]
				p := pt[4*i : 4*i+4 : 4*i+4]
				m0, m1 := a+bm[p[0]&patMask], b+bm[p[2]&patMask]
				lo[i] = max(m0, m1)
				wlo |= b2u(m1 > m0) << (uint(i) & 63)
				m0, m1 = a+bm[p[1]&patMask], b+bm[p[3]&patMask]
				hi[i] = max(m0, m1)
				whi |= b2u(m1 > m0) << (uint(i) & 63)
			}
			if half >= 64 {
				d[j0>>6] = wlo
				d[(half+j0)>>6] = whi
			} else {
				d[0] = wlo | whi<<uint(half)
			}
		}
		pm, next = next, pm
	}

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
	msb, mask := uint(c.k-2), states-1
	for t := steps - 1; t >= 0; t-- {
		out[t] = byte(state >> msb)
		bit := int(dec[t*words+state>>6] >> uint(state&63) & 1)
		state = (state<<1 | bit) & mask
	}
	c.putViterbiScratch(vs)
	return out
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}
