package payload

import (
	"errors"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/pipeline"
	"repro/internal/switchfab"
)

// Frame-level MF-TDMA reception: the return link of Fig 2 is organized
// in frames of (carrier, slot) cells; terminals transmit one burst per
// assigned cell. ReceiveFrameAndRouteQoS demodulates, decodes and
// routes every assigned cell of a composed frame and reports per-burst
// outcomes — the payload-side view of the MF-TDMA time plan.

// BurstReceipt is the outcome of one (carrier, slot) cell.
type BurstReceipt struct {
	Assignment modem.SlotAssignment
	Found      bool
	Soft       []float64
	// Sync carries the burst-synchronization diagnostics (UW metric, CFO
	// estimate, timing offset, carrier phase) of the demodulation stage,
	// populated for found and missed bursts alike so callers can study
	// acquisition behaviour under channel impairments.
	Sync SyncInfo
	// Bits holds the decoded info bits; nil when demodulation, decoding
	// or routing failed. On ReceiveFrameAndRouteQoS the slice is shared
	// with the packet queued in the switching fabric — callers may read
	// it but must not mutate it.
	Bits []byte
	Err  error
}

// RouteMeta describes where and how one decoded burst enters the
// switching fabric on the QoS route path: the destination beam, the
// traffic class the downlink scheduler keys on, an opaque terminal
// token for delivery attribution, and the ingress frame stamp for
// latency accounting. InfoBits > 0 trims the decoded bits to the
// codeword's info length before routing (the engine's k); 0 routes
// every decoded bit.
type RouteMeta struct {
	Beam     int
	Class    switchfab.Class
	Term     any
	Ingress  int
	InfoBits int
}

// receiveBurst runs the DEMOD and DECOD stages over one burst block —
// the per-cell kernel both receive calls fan out across the pipeline
// worker pool. It touches no shared state beyond the pooled
// demodulators, so any worker may run any cell and every cell writes
// only its own receipt.
func (p *Payload) receiveBurst(carrier int, rx dsp.Vec) BurstReceipt {
	var r BurstReceipt
	r.Soft, r.Sync, r.Err = p.demodulateCarrier(carrier, rx)
	if r.Err == nil {
		r.Found = true
		r.Bits, r.Err = p.decodeBurst(r.Soft)
	}
	return r
}

// routeBits is the post-barrier route step both receive calls share,
// run strictly in cell order after the workers finish so fabric
// contents never depend on the schedule. It returns the decoded bits
// to route, trimmed to m.InfoBits, or nil when the cell has nothing to
// route: a failed cell, a switch function that is down, or a beam
// outside the fabric (the last two become the receipt's error).
func (p *Payload) routeBits(r *BurstReceipt, m RouteMeta) []byte {
	if r.Bits == nil {
		return nil
	}
	err := p.checkBeam(m.Beam)
	if !p.cs.FunctionHealthy(FuncSwitch) {
		err = ErrServiceDown
	}
	if err != nil {
		r.Bits, r.Err = nil, err
		return nil
	}
	if m.InfoBits > 0 && m.InfoBits < len(r.Bits) {
		return r.Bits[:m.InfoBits]
	}
	return r.Bits
}

// ReceiveFrameAndRouteQoS runs the full regenerative receive path over
// the assigned cells of an MF-TDMA frame. The composer must have been
// built at the payload's TDMA oversampling (4 samples/symbol);
// unassigned cells are not touched. Every cell is demodulated and
// decoded concurrently on the pipeline worker pool — several bursts on
// the same carrier are fine, since each worker draws its own
// demodulator — and then enters the switching fabric, strictly in
// assignment order, as a typed packet carrying metas[i]'s class,
// terminal token and ingress frame, trimmed to metas[i].InfoBits and
// routed un-packed (the downlink scheduler hands the very same bit
// slice to the transmit grid). The result is bit-identical to a
// sequential loop over the assignments. Failed cells (burst not found,
// service down mid-reconfiguration, short codeword, beam outside the
// fabric) carry their error in the receipt and route nothing; a packet
// tail-dropped by a full class queue is counted by the fabric, not in
// the receipt (the burst itself was received fine).
func (p *Payload) ReceiveFrameAndRouteQoS(fc *modem.FrameComposer, assignments []modem.SlotAssignment, metas []RouteMeta) []BurstReceipt {
	if len(metas) != len(assignments) {
		panic("payload: one route meta per assignment required")
	}
	out := make([]BurstReceipt, len(assignments))
	pipeline.ForEach(len(assignments), func(i int) {
		a := assignments[i]
		out[i] = p.receiveBurst(a.Carrier, fc.SlotWaveform(a))
		out[i].Assignment = a
	})
	for i, m := range metas {
		if bits := p.routeBits(&out[i], m); bits != nil {
			p.sw.RoutePacket(m.Beam, switchfab.Packet{
				Bits:    bits,
				Class:   m.Class,
				Term:    m.Term,
				Ingress: m.Ingress,
			})
		}
	}
	return out
}

// ProcessFrame demodulates, decodes and routes one burst block per
// carrier — the receive path for blocks without a slot grid (CDMA
// bursts, raw per-carrier DEMUX output), modelling the payload's bank
// of identical per-carrier chains running in parallel. rx[c] is carrier
// c's baseband block (at most Config.Carriers blocks). It runs the same
// per-cell kernel and post-barrier route step as
// ReceiveFrameAndRouteQoS: decoded bursts are routed to beam as packed,
// best-effort packets strictly in carrier order, so switch contents are
// deterministic and the call is bit-identical to a sequential
// per-carrier loop.
//
// The returned slice has one entry per input block; carriers that
// failed (burst not found, acquisition miss, service down) leave a nil
// entry and contribute a wrapped error to the joined err. Partial
// frames are normal under SEUs or mid-reconfiguration, so callers
// should inspect both return values.
func (p *Payload) ProcessFrame(beam int, rx []dsp.Vec) ([][]byte, error) {
	if err := p.checkBeam(beam); err != nil {
		return nil, err
	}
	if len(rx) == 0 {
		return nil, errors.New("payload: empty frame")
	}
	if len(rx) > p.cfg.Carriers {
		return nil, fmt.Errorf("payload: %d blocks exceed the %d-carrier plan", len(rx), p.cfg.Carriers)
	}
	out := make([]BurstReceipt, len(rx))
	pipeline.ForEach(len(rx), func(c int) { out[c] = p.receiveBurst(c, rx[c]) })
	bits := make([][]byte, len(rx))
	errs := make([]error, len(rx))
	for c := range out {
		r := &out[c]
		if b := p.routeBits(r, RouteMeta{Beam: beam}); b != nil {
			p.sw.RoutePacket(beam, switchfab.Packet{Bits: fec.PackBits(b)})
		}
		bits[c] = r.Bits
		if r.Err != nil {
			errs[c] = fmt.Errorf("carrier %d: %w", c, r.Err)
		}
	}
	return bits, errors.Join(errs...)
}
