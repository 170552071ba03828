package main

import (
	"fmt"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultplan"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// availWorkload runs experiments.Availability: open-loop traffic over
// random link and node churn, a scripted node outage and a telemetry
// outage, so the resilient controller both falls back and recovers.
type availWorkload struct {
	cfg     experiments.AvailabilityConfig
	spec    string // faultplan.ParseSpec grammar
	corrupt func(any)
}

func newAvail(seed uint64, tiny bool, corrupt func(any)) *availWorkload {
	w := &availWorkload{
		cfg: experiments.AvailabilityConfig{N: 128, Nc: 8, X: 0.6, Load: 0.3, Slots: 100000,
			OutageStart: 30000, OutageEnd: 50000, Seed: seed},
		spec:    "churn@0-90000,links=0.002,nodes=0.0002,down=2000;node5@20000-40000",
		corrupt: corrupt,
	}
	if tiny {
		w.cfg = experiments.AvailabilityConfig{N: 16, Nc: 4, X: 0.6, Load: 0.2, Slots: 6000,
			EpochSlots: 250, OutageStart: 1000, OutageEnd: 3000, Seed: seed}
		w.spec = "churn@0-5000,links=0.002,down=150;node7@1200-2400"
	}
	// Availability's own defaults, resolved here so the replica uses them.
	if w.cfg.Window == 0 {
		w.cfg.Window = max(w.cfg.Slots/50, 1)
	}
	if w.cfg.EpochSlots == 0 {
		w.cfg.EpochSlots = 500
	}
	return w
}

func (w *availWorkload) workers() (int, int) {
	sw := sweep.Config{Concurrency: w.cfg.SweepWorkers}
	return sw.Workers(2), sw.SimWorkers(2, w.cfg.Workers)
}

// setup builds both designs' networks into cache and the fault plan;
// Availability builds its flow trace and simulators inside the run.
func (w *availWorkload) setup(cache *core.BuildCache, tr *tracer) error {
	cfg := w.cfg
	t0 := time.Now()
	_, err := cache.SORN(cfg.N, cfg.Nc, cfg.X)
	if err == nil {
		_, err = cache.SORNWithQ(cfg.N, cfg.Nc, 2)
	}
	tr.done(layerBuild, t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	plan, err := faultplan.ParseSpec(w.spec, cfg.N, cfg.Seed)
	tr.done(layerWorkload, t0)
	if err != nil {
		return err
	}
	w.cfg.Plan = plan
	return nil
}

func (w *availWorkload) run() outcome {
	out := outcome{ops: 2}
	res, err := experiments.Availability(w.cfg)
	if err != nil {
		out.failAll(err)
		return out
	}
	if w.corrupt != nil {
		w.corrupt(res)
	}
	// In-flight cells are not part of the result: each node sends at most
	// one cell per plane per slot, each staying in flight for the
	// propagation delay (500 ns at the default 100 ns slots).
	maxInFlight := int64(w.cfg.N) * 5
	for i, d := range []struct {
		st      *netsim.Stats
		windows []experiments.AvailabilityWindow
	}{{&res.SORNStats, res.SORN}, {&res.ObliviousStats, res.Oblivious}} {
		if len(d.windows) == 0 {
			out.fail("design %d: no windows", i)
			continue
		}
		backlog := d.windows[len(d.windows)-1].Backlog
		inFlight := d.st.InjectedCells - d.st.DeliveredCells - d.st.LostCells - d.st.DroppedCells - backlog
		if inFlight < 0 || inFlight > maxInFlight {
			out.fail("design %d: cell conservation: injected %d - delivered %d - lost %d - dropped %d - backlog %d = %d cells in flight, want 0..%d",
				i, d.st.InjectedCells, d.st.DeliveredCells, d.st.LostCells, d.st.DroppedCells, backlog, inFlight, maxInFlight)
			continue
		}
		if i == 0 && !(res.FellBack && res.Recovered) {
			out.fail("SORN design: fell back %v, recovered %v (want both)", res.FellBack, res.Recovered)
		}
	}
	w.finish(res, &out)
	return out
}

// finish digests a result and counts its simulated work.
func (w *availWorkload) finish(res *experiments.AvailabilityResult, out *outcome) {
	d := newDigester()
	for _, ws := range [][]experiments.AvailabilityWindow{res.SORN, res.Oblivious} {
		d.int(int64(len(ws)))
		for _, x := range ws {
			d.int(x.Slot)
			d.float(x.Throughput)
			d.int(x.Backlog)
			d.int(x.Lost)
			d.int(x.Dropped)
			d.bool(x.Degraded)
		}
	}
	d.bool(res.FellBack)
	d.bool(res.Recovered)
	d.stats(&res.SORNStats)
	d.stats(&res.ObliviousStats)
	out.digest = d.sum()
	out.cells = res.SORNStats.DeliveredCells + res.ObliviousStats.DeliveredCells
	out.slots = res.SORNStats.MeasuredSlots + res.ObliviousStats.MeasuredSlots
}

// designRun is one design's replica output.
type designRun struct {
	windows []experiments.AvailabilityWindow
	stats   netsim.Stats
	err     error // a failed output check, reported per design
}

// replica repeats Availability: both designs as two sweep points over the
// shared builds, each driving fault events, control epochs, arrivals,
// Step and fast-forward itself with every call timed. Conservation is
// checked exactly here, where the simulator's in-flight count is public.
func (w *availWorkload) replica(tr *tracer) outcome {
	cfg := w.cfg
	out := outcome{ops: 2}
	fail := func(err error) outcome {
		out.failAll(err)
		return out
	}
	t0 := time.Now()
	sorn, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, cfg.X)
	tr.done(layerBuild, t0)
	if err != nil {
		return fail(err)
	}
	t0 = time.Now()
	tm, err := sorn.LocalityMatrix(cfg.X)
	tr.done(layerWorkload, t0)
	if err != nil {
		return fail(err)
	}
	t0 = time.Now()
	obl, err := core.SharedBuilds.SORNWithQ(cfg.N, cfg.Nc, 2)
	tr.done(layerBuild, t0)
	if err != nil {
		return fail(err)
	}
	sw := sweep.Config{Concurrency: cfg.SweepWorkers, Seed: cfg.Seed}
	points := make([]tracer, 2)
	runs, err := sweep.Run(sw, 2, func(p sweep.Point) (designRun, error) {
		t := &points[p.Index]
		start := time.Now()
		defer func() { t.pointNS = append(t.pointNS, int64(time.Since(start))) }()
		simWorkers := sw.SimWorkers(2, cfg.Workers)
		if p.Index == 0 {
			ctl, err := controlplane.NewController(cfg.N, cfg.Nc, 0.5)
			if err != nil {
				return designRun{}, err
			}
			return w.replicaDesign(simWorkers, sorn, tm, controlplane.NewResilient(ctl), t)
		}
		return w.replicaDesign(simWorkers, obl, tm, nil, t)
	})
	for i := range points {
		tr.merge(&points[i])
	}
	tr.workers = sw.Workers(2)
	if err != nil {
		return fail(err)
	}
	res := &experiments.AvailabilityResult{
		SORN: runs[0].windows, SORNStats: runs[0].stats,
		Oblivious: runs[1].windows, ObliviousStats: runs[1].stats,
	}
	for _, x := range res.SORN {
		if x.Degraded {
			res.FellBack = true
		} else if res.FellBack {
			res.Recovered = true
		}
	}
	for i, r := range runs {
		if r.err != nil {
			out.fail("design %d: %v", i, r.err)
		}
	}
	if !(res.FellBack && res.Recovered) {
		out.fail("SORN design: fell back %v, recovered %v (want both)", res.FellBack, res.Recovered)
	}
	w.finish(res, &out)
	return out
}

// replicaDesign is Availability's per-design slot loop. resil is nil for
// the static oblivious baseline.
func (w *availWorkload) replicaDesign(simWorkers int, nw *core.Network, tm *workload.Matrix,
	resil *controlplane.Resilient, t *tracer) (designRun, error) {
	cfg := w.cfg
	ob := phaseObserver()
	t0 := time.Now()
	sim, err := nw.NewSim(core.SimOptions{Seed: cfg.Seed, Workers: simWorkers, LatencySampleEvery: 16, Obs: ob})
	t.done(layerSimSetup, t0)
	if err != nil {
		return designRun{}, err
	}
	t0 = time.Now()
	gen, err := workload.NewPoissonFlows(tm, workload.FixedSize(8), cfg.Load, cfg.Seed+1)
	if err != nil {
		return designRun{}, err
	}
	flows := gen.Window(0, cfg.Slots)
	t.done(layerWorkload, t0)
	t.flows += int64(len(flows))
	drv := faultplan.NewDriver(cfg.Plan)

	sim.StartMeasuring()
	var out []experiments.AvailabilityWindow
	var prev netsim.Stats
	next := 0
	for slot := int64(0); slot < cfg.Slots; slot++ {
		t0 = time.Now()
		t.faultEvents += int64(drv.Advance(sim, slot))
		t.done(layerFault, t0)
		if resil != nil && slot%cfg.EpochSlots == 0 {
			t0 = time.Now()
			if slot < cfg.OutageStart || slot >= cfg.OutageEnd {
				if err := resil.C.Observe(tm); err != nil {
					return designRun{}, err
				}
			}
			dec, err := resil.Decide()
			t.done(layerControl, t0)
			if err != nil {
				return designRun{}, err
			}
			t.decisions++
			if resil.Degraded() {
				t.degraded++
			}
			if dec.Changed {
				t.changes++
				t.reconfigCells += sim.Backlog()
				t0 = time.Now()
				err := sim.Reconfigure(dec.Plan.Built.Schedule, routing.NewSORN(dec.Plan.Built))
				t.done(layerReconfig, t0)
				if err != nil {
					return designRun{}, err
				}
			}
		}
		for next < len(flows) && flows[next].Arrival <= slot {
			f := flows[next]
			t.inject(sim, f.Src, f.Dst, f.Size)
			next++
		}
		t.step(sim)
		if (slot+1)%cfg.Window == 0 || slot == cfg.Slots-1 {
			cur := *sim.Stats()
			x := experiments.AvailabilityWindow{
				Slot:    slot + 1,
				Backlog: sim.Backlog(),
				Lost:    cur.LostCells - prev.LostCells,
				Dropped: cur.DroppedCells - prev.DroppedCells,
			}
			span := cfg.Window
			if r := (slot + 1) % cfg.Window; r != 0 {
				span = r
			}
			x.Throughput = float64(cur.DeliveredCells-prev.DeliveredCells) /
				(float64(cfg.N) * float64(span))
			if resil != nil {
				x.Degraded = resil.Degraded()
			}
			out = append(out, x)
			prev = cur
		}
		target := cfg.Slots - 1
		if fs, ok := drv.NextSlot(); ok && fs < target {
			target = fs
		}
		if next < len(flows) && flows[next].Arrival < target {
			target = flows[next].Arrival
		}
		if resil != nil {
			if ep := (slot/cfg.EpochSlots + 1) * cfg.EpochSlots; ep < target {
				target = ep
			}
		}
		if rp := ((slot+1)/cfg.Window+1)*cfg.Window - 1; rp < target {
			target = rp
		}
		before := sim.Slot()
		t.fastForward(sim, target)
		if sim.Slot() != before {
			slot = sim.Slot() - 1
		}
	}
	st := sim.Stats()
	t.addPhases(ob, t.calls[layerStep])
	t.addStats(st, cfg.N)
	run := designRun{windows: out, stats: *st}
	if err := conserved(st, sim.Backlog(), int64(sim.InFlight())); err != nil {
		run.err = err
	}
	return run, nil
}

// probe measures the heap bytes of building both designs' simulators.
func (w *availWorkload) probe(tr *tracer) error {
	cfg := w.cfg
	_, simWorkers := w.workers()
	sorn, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, cfg.X)
	if err != nil {
		return err
	}
	obl, err := core.SharedBuilds.SORNWithQ(cfg.N, cfg.Nc, 2)
	if err != nil {
		return err
	}
	for _, nw := range []*core.Network{sorn, obl} {
		a0 := heapAllocated()
		if _, err := nw.NewSim(core.SimOptions{Seed: cfg.Seed, Workers: simWorkers, LatencySampleEvery: 16}); err != nil {
			return fmt.Errorf("probe simulator: %w", err)
		}
		tr.simSetupAlloc += heapAllocated() - a0
	}
	return nil
}
