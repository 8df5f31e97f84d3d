package frontend

import (
	"repro/internal/dsp"
	"repro/internal/pipeline"
)

// Demux is the payload demultiplexer (Fig 2): it splits a wideband
// multi-carrier uplink into per-carrier baseband streams using a bank of
// digital down-converters, one per MF-TDMA carrier. The transmit-side
// dual, Mux, stacks per-carrier streams back onto a wideband signal.

// CarrierPlan describes the frequency plan of the multi-carrier signal:
// n carriers spaced evenly, centred on DC, at normalized spacing
// (cycles/sample at the wideband rate).
type CarrierPlan struct {
	Carriers int
	Spacing  float64
	Decim    int // per-carrier decimation from wideband to carrier rate
}

// ChannelFilterTaps is the channel-filter length of the payload's MUX
// and DEMUX banks: every DUC and DDC the transmit section and the
// ground verifier build uses this many lowpass taps.
const ChannelFilterTaps = 95

// DefaultCarrierPlan returns the 6-carrier plan matching the gate-count
// example of §2.3 (timing recovery for MF-TDMA with 6 carriers).
func DefaultCarrierPlan() CarrierPlan {
	return CarrierPlan{Carriers: 6, Spacing: 0.125, Decim: 8}
}

// Freq returns the normalized centre frequency of carrier c.
func (p CarrierPlan) Freq(c int) float64 {
	return (float64(c) - float64(p.Carriers-1)/2) * p.Spacing
}

// Demux is the DDC bank.
type Demux struct {
	plan CarrierPlan
	ddcs []*dsp.DDC
	out  []dsp.Vec // per-carrier output slots, reused across calls

	// downconvert is the per-carrier worker body, built once so the
	// steady state does not heap-allocate a closure per frame; cur is
	// its per-call argument.
	downconvert func(int)
	cur         dsp.Vec
}

// NewDemux builds the demultiplexer; ntaps sizes each channel filter.
func NewDemux(plan CarrierPlan, ntaps int) *Demux {
	if plan.Carriers < 1 {
		panic("frontend: carrier plan needs at least one carrier")
	}
	d := &Demux{plan: plan, out: make([]dsp.Vec, plan.Carriers)}
	cutoff := plan.Spacing / 2 * 0.9 // channel filter inside the spacing
	for c := 0; c < plan.Carriers; c++ {
		d.ddcs = append(d.ddcs, dsp.NewDDC(plan.Freq(c), cutoff, ntaps, plan.Decim))
	}
	d.downconvert = func(c int) {
		ddc := d.ddcs[c]
		d.out[c] = ddc.ProcessInto(dsp.GetVec(ddc.OutLen(len(d.cur))), d.cur)
	}
	return d
}

// Plan returns the frequency plan.
func (d *Demux) Plan() CarrierPlan { return d.plan }

// Process splits a wideband block into per-carrier baseband streams.
// The DDC bank fans out across the pipeline worker pool — one chain per
// carrier, as in the FPGA DEMUX — and each carrier writes only its own
// DDC state and output slot, so the result is bit-identical to a
// sequential loop. The returned slice is Demux-owned and valid until
// the next call; the blocks in it come from the dsp block pool, and
// callers done with a block may dsp.PutVec it to complete the recycling
// loop. Steady state performs no allocations once the pool is warm.
func (d *Demux) Process(wideband dsp.Vec) []dsp.Vec {
	d.cur = wideband
	pipeline.ForEach(len(d.ddcs), d.downconvert)
	d.cur = nil
	return d.out
}

// Mux is the transmit-side carrier stacker (DUC bank).
type Mux struct {
	plan CarrierPlan
	ducs []*dsp.DUC
	tmp  []dsp.Vec // scratch: per-carrier up-converted blocks, reused across calls

	// upconvert is the per-carrier worker body, built once so the steady
	// state does not heap-allocate a closure per frame; cur* are its
	// per-call arguments.
	upconvert   func(int)
	curN        int
	curCarriers []dsp.Vec
}

// NewMux builds the multiplexer with the same plan as the Demux.
func NewMux(plan CarrierPlan, ntaps int) *Mux {
	if plan.Carriers < 1 {
		panic("frontend: carrier plan needs at least one carrier")
	}
	m := &Mux{plan: plan}
	cutoff := plan.Spacing / 2 * 0.9
	for c := 0; c < plan.Carriers; c++ {
		m.ducs = append(m.ducs, dsp.NewDUC(plan.Freq(c), cutoff, ntaps, plan.Decim))
	}
	m.upconvert = func(c int) {
		duc := m.ducs[c]
		m.tmp[c] = duc.ProcessInto(dsp.GetVec(duc.OutLen(m.curN)), m.curCarriers[c])
	}
	return m
}

// OutLen returns the wideband sample count produced for per-carrier
// blocks of n samples.
func (m *Mux) OutLen(n int) int { return n * m.plan.Decim }

// Process stacks per-carrier baseband streams (all the same length) onto
// one wideband block.
func (m *Mux) Process(carriers []dsp.Vec) dsp.Vec {
	var n int
	if len(carriers) > 0 {
		n = len(carriers[0])
	}
	return m.ProcessInto(dsp.NewVec(m.OutLen(n)), carriers)
}

// ProcessInto is the allocation-free variant of Process: the DUC bank
// fans out across the pipeline worker pool — one chain per carrier, as
// in the FPGA MUX, each carrier owning only its DUC state and a pooled
// scratch block — and the up-converted carriers are then summed into dst
// (at least OutLen(n) long) strictly in carrier order, so the wideband
// block is bit-identical to a sequential loop. Steady state performs no
// allocations once the pool is warm.
func (m *Mux) ProcessInto(dst dsp.Vec, carriers []dsp.Vec) dsp.Vec {
	if len(carriers) != len(m.ducs) {
		panic("frontend: carrier count mismatch")
	}
	n := len(carriers[0])
	for _, c := range carriers {
		if len(c) != n {
			panic("frontend: carrier block length mismatch")
		}
	}
	if cap(m.tmp) < len(m.ducs) {
		m.tmp = make([]dsp.Vec, len(m.ducs))
	}
	tmp := m.tmp[:len(m.ducs)]
	m.curN, m.curCarriers = n, carriers
	pipeline.ForEach(len(m.ducs), m.upconvert)
	m.curCarriers = nil
	dst = dst[:m.OutLen(n)]
	for c, v := range tmp {
		if c == 0 {
			copy(dst, v)
		} else {
			dst.Add(v)
		}
		dsp.PutVec(v)
		tmp[c] = nil
	}
	return dst
}
