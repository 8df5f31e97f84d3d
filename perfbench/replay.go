package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/switchfab"
	"repro/internal/traffic"
)

// replayLayerNames are the module layers the replay times, each
// reported as <name>_ms (host ms per replayed frame) and <name>_calls
// (calls per replayed frame).
var replayLayerNames = []string{
	"fec.encode", "modem.modulate", "dsp.channel", "payload.receive",
	"modem.demod", "fec.decode", "switchfab.route", "switchfab.schedule",
	"payload.transmit_grid", "frontend.demux", "frontend.mux", "frontend.dac",
}

// layerAcc accumulates one layer's timed calls.
type layerAcc struct {
	d     time.Duration
	calls int
}

// replayTotals gathers the replay's figures over every rig.
type replayTotals struct {
	frames         int
	layers         map[string]*layerAcc
	found, demods  int
	busy, capacity time.Duration // pipeline.ForEach task time vs wall × workers
}

// timed runs fn as one span of calls to the named layer.
func (rt *replayTotals) timed(layer string, calls int, fn func()) {
	t := time.Now()
	fn()
	a := rt.layers[layer]
	a.d += time.Since(t)
	a.calls += calls
}

// rig holds the module instances of one workload shape, built from the
// workload's own spec: an unstepped scenario session boots the payload
// (codec, burst format, resolved sync chain) and resolves the engine
// configuration, and the rig drives each module's public calls directly.
// Per-frame counts are the ones the measured workload showed.
type rig struct {
	sess  *scenario.Session
	pl    *payload.Payload
	cfg   traffic.Config
	codec fec.Codec
	terms []traffic.Terminal
	k     int // info bits per burst
	coded int // coded bits per burst
	pbits int // burst payload bits
	seed  int64

	fc    *modem.FrameComposer
	mods  []*modem.BurstModulator // uplink, one per cell (ForEach tasks)
	chans []*dsp.Channel          // one per cell
	dmod  *modem.BurstModulator   // downlink
	dem   *modem.BurstDemodulator
	tx    *payload.Transmitter
	mux   *frontend.Mux
	dac   *frontend.DAC
	demux *frontend.Demux
	fab   *switchfab.Fabric
	sched switchfab.Scheduler
	emit  func(switchfab.Packet) bool

	bursts, downlink, routed float64    // per frame, as measured
	carry                    [3]float64 // fractional count carry
	rng                      *rand.Rand

	info     [][]byte // per cell
	enc      [][]byte
	waves    []dsp.Vec
	asgs     []modem.SlotAssignment
	metas    []payload.RouteMeta
	grid     [][][]byte
	carriers []dsp.Vec
	busy     []time.Duration
}

// shapeOf reads a workload's per-frame counts out of its session reports:
// uplink bursts, downlink bursts (modulated packets) and fabric routes.
func shapeOf(reports []*traffic.Report) (bursts, downlink, routed float64) {
	var frames, b, d, r int
	for _, rep := range reports {
		frames += rep.Frames
		b += rep.UplinkBursts
		d += ledgerOf(rep).DownlinkBursts
		for _, c := range rep.PerClass {
			r += c.RoutedPackets
		}
	}
	f := float64(max(frames, 1))
	return float64(b) / f, float64(d) / f, float64(r) / f
}

// printLoad prints the per-frame load the reports show, the part of a
// run's cost that depends on the seed.
func printLoad(reports []*traffic.Report) {
	b, d, r := shapeOf(reports)
	fmt.Printf("load: uplink_bursts/frame=%.3f downlink_bursts/frame=%.3f routes/frame=%.3f\n", b, d, r)
}

func newRig(spec scenario.Spec, reports []*traffic.Report) (*rig, error) {
	sess, err := scenario.NewSession(spec)
	if err != nil {
		return nil, err
	}
	r := &rig{sess: sess, pl: sess.Payload(), cfg: sess.Engine().Config(), terms: sess.Engine().Terminals(), seed: spec.Traffic.Seed}
	if r.codec, err = r.pl.Codec(); err != nil {
		sess.Close()
		return nil, err
	}
	bf := r.pl.BurstFormat()
	r.pbits = bf.PayloadBits()
	r.k = traffic.InfoBitsFor(r.codec, r.pbits)
	r.coded = r.codec.EncodedLen(r.k)
	r.pl.SetBurstCodedBits(r.coded)
	fr, plan := r.cfg.Frame, r.cfg.Plan
	cells := fr.Carriers * fr.Slots
	r.fc = modem.NewFrameComposer(fr, 4)
	r.dmod = modem.NewBurstModulator(bf, 0.35, plan.Decim, 10)
	r.dem = modem.NewBurstDemodulatorSync(bf, 0.35, 4, 10, modem.TimingOerderMeyr, r.pl.SyncConfig())
	r.tx = payload.NewTransmitter(r.pl, plan)
	r.mux = frontend.NewMux(plan, 95)
	r.dac = frontend.NewDAC(12, 4)
	r.demux = frontend.NewDemux(plan, 95)
	r.fab = switchfab.New(fr.Carriers, r.cfg.QueueDepth)
	r.sched = sess.Engine().Scheduler()
	r.emit = func(switchfab.Packet) bool { return true }
	r.bursts, r.downlink, r.routed = shapeOf(reports)
	r.bursts = math.Min(r.bursts, float64(cells))
	r.downlink = math.Min(r.downlink, float64(cells))
	r.rng = rand.New(rand.NewSource(spec.Traffic.Seed))
	r.mods = make([]*modem.BurstModulator, cells)
	r.chans = make([]*dsp.Channel, cells)
	r.info = make([][]byte, cells)
	r.enc = make([][]byte, cells)
	r.waves = make([]dsp.Vec, cells)
	r.busy = make([]time.Duration, cells)
	for i := range r.mods {
		r.mods[i] = modem.NewBurstModulator(bf, 0.35, 4, 10)
		r.chans[i] = dsp.NewChannel(0)
		r.info[i] = make([]byte, r.k)
		r.enc[i] = make([]byte, 0, r.pbits)
	}
	if r.mods[0].WaveformLen() > fr.SlotSymbols*4 {
		sess.Close()
		return nil, fmt.Errorf("replay: %d-sample burst over the %d-sample slot", r.mods[0].WaveformLen(), fr.SlotSymbols*4)
	}
	r.grid = make([][][]byte, fr.Carriers)
	r.carriers = make([]dsp.Vec, fr.Carriers)
	slotLen := fr.SlotSymbols * plan.Decim
	for c := range r.grid {
		r.grid[c] = make([][]byte, fr.Slots)
		r.carriers[c] = dsp.NewVec(fr.Slots*slotLen + payload.TxTailMargin)
	}
	return r, nil
}

// take returns this frame's whole count for a fractional per-frame rate,
// carrying the remainder so the long-run mean matches the rate.
func (r *rig) take(i int, rate float64) int {
	r.carry[i] += rate
	n := int(r.carry[i])
	r.carry[i] -= float64(n)
	return n
}

// cell is the (carrier, slot) of the i-th burst of a frame.
func (r *rig) cell(i int) modem.SlotAssignment {
	c := r.cfg.Frame.Carriers
	return modem.SlotAssignment{Carrier: i % c, Slot: i / c}
}

// encode, modulate and channel are the terminal side of cell i, one
// layer call each; the channel follows the engine's per-cell model
// (seeded per frame and cell, terminal profile applied, CFO and drift
// per sample).
func (r *rig) encode(i int) {
	e := fec.AppendEncode(r.codec, r.enc[i][:0], r.info[i])
	if len(e) > r.pbits {
		e = e[:r.pbits]
	}
	for len(e) < r.pbits {
		e = append(e, 0)
	}
	r.enc[i] = e
}

func (r *rig) modulate(i int) {
	r.waves[i] = r.mods[i].ModulateInto(r.fc.SlotWaveform(r.cell(i)), r.enc[i])
}

// channel reports whether the cell goes through a channel at all.
func (r *rig) channel(f, i int) bool {
	noisy := r.cfg.EbN0dB > 0
	prof := r.terms[i%len(r.terms)].Channel
	if !noisy && prof == nil {
		return false
	}
	esN0 := 300.0 // effectively noiseless
	if prof != nil && prof.EsN0dB != 0 {
		esN0 = prof.EsN0dB
	} else if noisy {
		esN0 = r.cfg.EbN0dB + 10*math.Log10(2*r.codec.Rate())
	}
	ch := r.chans[i]
	ch.Reseed(r.seed + int64(f)*100003 + int64(i))
	ch.EsN0dB, ch.SPS, ch.Gain = esN0, 4, 1
	ch.PhaseOffset, ch.FreqOffset, ch.FreqDrift, ch.TimingOffset = 0, 0, 0, 0
	if prof != nil {
		ch.FreqOffset = (prof.CFO + prof.Drift*float64(f)) / 4
		ch.PhaseOffset = prof.Phase
		ch.TimingOffset = prof.Timing
		if prof.Gain != 0 {
			ch.Gain = prof.Gain
		}
	}
	ch.ApplyInPlace(r.waves[i])
	return true
}

// frame replays one frame of the workload through every layer.
func (r *rig) frame(f int, rt *replayTotals) error {
	fr := r.cfg.Frame
	n := r.take(0, r.bursts)
	cells := fr.Carriers * fr.Slots
	for i := 0; i < cells; i++ {
		for j := range r.info[i] {
			r.info[i][j] = byte(r.rng.Intn(2))
		}
	}
	r.fc.Reset()

	// Uplink synthesis, one layer at a time.
	rt.timed("fec.encode", n, func() {
		for i := 0; i < n; i++ {
			r.encode(i)
		}
	})
	rt.timed("modem.modulate", n, func() {
		for i := 0; i < n; i++ {
			r.modulate(i)
		}
	})
	chans := 0
	for i := 0; i < n; i++ {
		t := time.Now()
		if r.channel(f, i) {
			chans++
		}
		rt.layers["dsp.channel"].d += time.Since(t)
	}
	rt.layers["dsp.channel"].calls += chans

	// The same synthesis as concurrent tasks on the pipeline pool, as
	// the engine fans it out; each task redoes its cell identically.
	t := time.Now()
	pipeline.ForEach(n, func(i int) {
		ts := time.Now()
		r.encode(i)
		r.modulate(i)
		r.channel(f, i)
		r.busy[i] = time.Since(ts)
	})
	if n > 0 {
		rt.capacity += time.Since(t) * time.Duration(min(pipeline.Workers(), n))
		for _, b := range r.busy[:n] {
			rt.busy += b
		}
	}

	// Payload receive path: DEMOD + DECOD fan-out and the QoS route.
	r.asgs, r.metas = r.asgs[:0], r.metas[:0]
	for i := 0; i < n; i++ {
		tm := r.terms[i%len(r.terms)]
		r.asgs = append(r.asgs, r.cell(i))
		r.metas = append(r.metas, payload.RouteMeta{Beam: tm.Beam, Class: tm.Class, Ingress: f, InfoBits: r.k})
	}
	rt.timed("payload.receive", 1, func() { r.pl.ReceiveFrameAndRouteQoS(r.fc, r.asgs, r.metas) })
	for b := 0; b < fr.Carriers; b++ {
		r.pl.Switch().Drain(b)
	}

	// The receive layers one call at a time.
	for i := 0; i < n; i++ {
		t := time.Now()
		res := r.dem.Demodulate(r.fc.SlotWaveform(r.cell(i)))
		rt.layers["modem.demod"].d += time.Since(t)
		rt.layers["modem.demod"].calls++
		rt.demods++
		if !res.Found || len(res.Soft) < r.coded {
			continue
		}
		rt.found++
		t = time.Now()
		r.codec.Decode(res.Soft[:r.coded])
		rt.layers["fec.decode"].d += time.Since(t)
		rt.layers["fec.decode"].calls++
	}

	// Switch: the frame's routes (decoded and aggregate packets alike),
	// then one scheduler fill per beam.
	routes := r.take(1, r.routed)
	rt.timed("switchfab.route", routes, func() {
		for j := 0; j < routes; j++ {
			tm := r.terms[j%len(r.terms)]
			r.fab.RoutePacket(j%fr.Carriers, switchfab.Packet{Bits: r.info[j%cells], Class: tm.Class, Ingress: f})
		}
	})
	rt.timed("switchfab.schedule", fr.Carriers, func() {
		for b := 0; b < fr.Carriers; b++ {
			r.fab.Schedule(r.sched, b, fr.Slots, r.emit)
		}
	})

	// Downlink: the transmit grid, then the ground DDC bank over its
	// output, then the DUC bank and DAC on their own.
	m := r.take(2, r.downlink)
	for c := range r.grid {
		for s := range r.grid[c] {
			r.grid[c][s] = nil
		}
	}
	for j := 0; j < m; j++ {
		a := r.cell(j)
		r.grid[a.Carrier][a.Slot] = r.info[j]
	}
	var wide dsp.Vec
	var err error
	rt.timed("payload.transmit_grid", 1, func() { wide, err = r.tx.TransmitFrameGrid(fr, r.grid) })
	if err != nil {
		return fmt.Errorf("replay transmit: %w", err)
	}
	var split []dsp.Vec
	rt.timed("frontend.demux", 1, func() { split = r.demux.Process(wide) })
	for _, v := range split {
		dsp.PutVec(v)
	}
	dsp.PutVec(wide)

	slotLen := fr.SlotSymbols * r.cfg.Plan.Decim
	for c := range r.carriers {
		buf := r.carriers[c]
		for i := range buf {
			buf[i] = 0
		}
		for s, info := range r.grid[c] {
			if info != nil {
				r.encode(0)
				r.dmod.ModulateInto(buf[s*slotLen:], r.enc[0])
			}
		}
	}
	var w dsp.Vec
	rt.timed("frontend.mux", 1, func() {
		w = r.mux.ProcessInto(dsp.GetVec(r.mux.OutLen(len(r.carriers[0]))), r.carriers)
	})
	rt.timed("frontend.dac", 1, func() { r.dac.ConvertInto(w, w) })
	dsp.PutVec(w)
	rt.frames++
	return nil
}

// replayLayers replays frames of every spec's shape, round robin, for
// the remaining share of the run, and sets the per-module metrics.
func replayLayers(out *outcome, rc runConfig, specs []scenario.Spec, measured *phaseResult) error {
	rt := &replayTotals{layers: map[string]*layerAcc{}}
	for _, name := range replayLayerNames {
		rt.layers[name] = &layerAcc{}
	}
	rigs := make([]*rig, len(specs))
	for i, spec := range specs {
		var reps []*traffic.Report
		for j := i; j < len(measured.reports); j += len(specs) {
			reps = append(reps, measured.reports[j])
		}
		r, err := newRig(spec, reps)
		if err != nil {
			return err
		}
		defer r.sess.Close()
		rigs[i] = r
	}
	budget := rc.budget(0.3)
	start := time.Now()
	for f := 0; f == 0 || time.Since(start) < budget; f++ {
		for _, r := range rigs {
			if err := r.frame(f, rt); err != nil {
				return err
			}
		}
	}
	frames := float64(rt.frames)
	for _, name := range replayLayerNames {
		a := rt.layers[name]
		out.set(name+"_ms", ms(a.d)/frames, "ms")
		out.set(name+"_calls", float64(a.calls)/frames, "1/frame")
	}
	lock := 1.0
	if rt.demods > 0 {
		lock = float64(rt.found) / float64(rt.demods)
	}
	out.set("modem.sync_lock_ratio", lock, "ratio")
	share := 0.0
	if rt.capacity > 0 {
		share = float64(rt.busy) / float64(rt.capacity)
	}
	out.set("pipeline.foreach_busy_share", share, "ratio")
	return nil
}
