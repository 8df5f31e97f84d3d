package dsp

import "math"

// NCO is a numerically controlled oscillator producing exp(j 2 pi f n + phi).
// It is the digital local oscillator used by the payload's down-conversion
// (DDC) and up-conversion stages (LO1, LO2a/b in Fig 2 of the paper).
type NCO struct {
	freq  float64 // cycles per sample
	phase float64 // current phase in radians
}

// NewNCO creates an oscillator at normalized frequency freq (cycles/sample)
// with initial phase radians.
func NewNCO(freq, phase float64) *NCO {
	return &NCO{freq: freq, phase: phase}
}

// Freq returns the current frequency in cycles/sample.
func (o *NCO) Freq() float64 { return o.freq }

// SetFreq retunes the oscillator without a phase discontinuity.
func (o *NCO) SetFreq(freq float64) { o.freq = freq }

// Phase returns the current phase in radians.
func (o *NCO) Phase() float64 { return o.phase }

// AdjustPhase adds dp radians to the accumulator (used by tracking loops).
func (o *NCO) AdjustPhase(dp float64) {
	o.phase = wrapPhase(o.phase + dp)
}

// Next returns the next oscillator sample and advances the accumulator.
func (o *NCO) Next() complex128 {
	s := complex(math.Cos(o.phase), math.Sin(o.phase))
	o.phase = wrapPhase(o.phase + 2*math.Pi*o.freq)
	return s
}

// Block produces n oscillator samples.
func (o *NCO) Block(n int) Vec {
	out := NewVec(n)
	for i := range out {
		out[i] = o.Next()
	}
	return out
}

// Mix multiplies the input block by the oscillator (frequency translation).
func (o *NCO) Mix(in Vec) Vec {
	return o.MixInto(NewVec(len(in)), in)
}

// ncoReanchor is how many samples MixInto advances the phasor by
// recurrence before recomputing it from the exact phase accumulator,
// which bounds the recurrence's rounding drift to a few ulps.
const ncoReanchor = 64

// MixInto is the allocation-free variant of Mix: it writes the mixed
// block into dst (at least len(in) long; dst == in is allowed) and
// returns dst[:len(in)]. The oscillator runs as a phasor recurrence
// z *= exp(j 2 pi f), re-anchored to exp(j phase) every ncoReanchor
// samples, while the phase accumulator advances exactly as Next
// advances it; output matches per-sample Next to within ~1e-14.
func (o *NCO) MixInto(dst, in Vec) Vec {
	dst = dst[:len(in)]
	step := 2 * math.Pi * o.freq
	w := complex(math.Cos(step), math.Sin(step))
	for start := 0; start < len(in); start += ncoReanchor {
		end := min(start+ncoReanchor, len(in))
		z := complex(math.Cos(o.phase), math.Sin(o.phase))
		for i := start; i < end; i++ {
			dst[i] = in[i] * z
			z *= w
			o.phase = wrapPhase(o.phase + step)
		}
	}
	return dst
}

func wrapPhase(p float64) float64 {
	for p > math.Pi {
		p -= 2 * math.Pi
	}
	for p < -math.Pi {
		p += 2 * math.Pi
	}
	return p
}

// withHistory returns ext resliced (or regrown) to h+n samples with its
// first h samples, the stream history, preserved.
func withHistory(ext Vec, h, n int) Vec {
	if cap(ext) < h+n {
		grown := make(Vec, h+n)
		copy(grown, ext[:h])
		return grown
	}
	return ext[:h+n]
}

// DDC is a digital down-converter: an NCO mixer followed by a lowpass FIR
// and a decimator. One DDC per carrier implements the payload DEMUX for a
// multi-frequency (MF-TDMA) uplink. The FIR is evaluated only at the
// output positions the decimator keeps.
type DDC struct {
	nco    *NCO
	taps   []float64 // lowpass taps, reversed: out = Σ_j ext[i+j]·taps[j]
	decim  int
	dPhase int
	ext    Vec // mixed stream: len(taps)-1 history samples, then the block
}

// NewDDC builds a down-converter that translates a carrier at normalized
// frequency freq to baseband, lowpass filters with the given cutoff and
// ntaps, and decimates by decim.
func NewDDC(freq, cutoff float64, ntaps, decim int) *DDC {
	if decim < 1 {
		panic("dsp: NewDDC decim must be >= 1")
	}
	taps := LowpassTaps(cutoff, ntaps)
	rev := make([]float64, ntaps)
	for j := range rev {
		rev[j] = taps[ntaps-1-j]
	}
	return &DDC{
		nco:   NewNCO(-freq, 0),
		taps:  rev,
		decim: decim,
		ext:   NewVec(ntaps - 1),
	}
}

// Decimation returns the decimation factor.
func (d *DDC) Decimation() int { return d.decim }

// OutLen returns how many samples the next Process call will emit for a
// block of n input samples, given the current decimation phase.
func (d *DDC) OutLen(n int) int {
	if n <= 0 {
		return 0
	}
	first := d.firstKept()
	if first >= n {
		return 0
	}
	return (n - first + d.decim - 1) / d.decim
}

// firstKept is the index in the next block of the first input sample
// whose filter output the decimator keeps.
func (d *DDC) firstKept() int { return (d.decim - d.dPhase) % d.decim }

// Process translates, filters and decimates a block.
func (d *DDC) Process(in Vec) Vec {
	return d.ProcessInto(NewVec(d.OutLen(len(in))), in)
}

// ProcessInto is the allocation-free variant of Process: the block is
// mixed into a DDC-owned history-extended buffer and the decimated
// baseband is written into dst (at least OutLen(len(in)) long, not
// aliasing in). Only the kept output positions are filtered, so the
// cost per input sample is ntaps/decim multiply-adds. A DDC carries
// stream history, so it serves one stream at a time.
func (d *DDC) ProcessInto(dst, in Vec) Vec {
	h := len(d.taps) - 1
	d.ext = withHistory(d.ext, h, len(in))
	ext := d.ext
	d.nco.MixInto(ext[h:], in)
	k := 0
	for i := d.firstKept(); i < len(in); i += d.decim {
		x := ext[i : i+len(d.taps)]
		var re, im float64
		for j, t := range d.taps {
			re += real(x[j]) * t
			im += imag(x[j]) * t
		}
		dst[k] = complex(re, im)
		k++
	}
	copy(ext, ext[len(in):])
	d.dPhase = (d.dPhase + len(in)) % d.decim
	return dst[:k]
}

// DUC is a digital up-converter: a polyphase interpolator (the
// zero-stuff-and-lowpass image-reject filter split into interp phase
// sub-filters running at the input rate), then NCO mixing to the
// carrier. It is the transmit-side dual of DDC, used by the payload Tx
// section.
type DUC struct {
	nco    *NCO
	interp int
	sub    int       // taps per phase sub-filter: ceil(ntaps/interp)
	phases []float64 // interp reversed sub-filters of sub taps, phase-major
	ext    Vec       // input stream: sub-1 history samples, then the block
}

// NewDUC builds an up-converter interpolating by interp and translating
// baseband to normalized frequency freq.
func NewDUC(freq, cutoff float64, ntaps, interp int) *DUC {
	if interp < 1 {
		panic("dsp: NewDUC interp must be >= 1")
	}
	taps := LowpassTaps(cutoff, ntaps)
	sub := (ntaps + interp - 1) / interp
	// Output sample q·interp+r is Σ_l interp·taps[r+l·interp]·x[q-l]:
	// phase r keeps every interp-th tap from r (the interp gain restores
	// the zero-stuffed signal's power), zero-padded to sub taps and
	// stored reversed to run over the history-extended input.
	phases := make([]float64, interp*sub)
	for r := 0; r < interp; r++ {
		for l := 0; l < sub; l++ {
			if k := r + l*interp; k < ntaps {
				phases[r*sub+sub-1-l] = float64(interp) * taps[k]
			}
		}
	}
	return &DUC{
		nco:    NewNCO(freq, 0),
		interp: interp,
		sub:    sub,
		phases: phases,
		ext:    NewVec(sub - 1),
	}
}

// Interpolation returns the interpolation factor.
func (u *DUC) Interpolation() int { return u.interp }

// OutLen returns how many samples Process/ProcessInto emit for a block
// of n input samples.
func (u *DUC) OutLen(n int) int { return n * u.interp }

// Process interpolates, filters and up-converts a baseband block.
func (u *DUC) Process(in Vec) Vec {
	return u.ProcessInto(NewVec(u.OutLen(len(in))), in)
}

// ProcessInto is the allocation-free variant of Process: every phase
// sub-filter runs over the DUC-owned history-extended input and writes
// its output sample straight into dst (at least OutLen(len(in)) long,
// not aliasing in), which is then mixed to the carrier in place. A DUC
// carries stream history, so it serves one stream at a time.
func (u *DUC) ProcessInto(dst, in Vec) Vec {
	h := u.sub - 1
	u.ext = withHistory(u.ext, h, len(in))
	ext := u.ext
	copy(ext[h:], in)
	dst = dst[:u.OutLen(len(in))]
	for q := range in {
		x := ext[q : q+u.sub]
		out := dst[q*u.interp : (q+1)*u.interp]
		for r := range out {
			g := u.phases[r*u.sub : (r+1)*u.sub]
			var re, im float64
			for j, t := range g {
				re += real(x[j]) * t
				im += imag(x[j]) * t
			}
			out[r] = complex(re, im)
		}
	}
	copy(ext, ext[len(in):])
	return u.nco.MixInto(dst, dst)
}
