package main

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// layer is one group of public calls the traced replica times.
type layer int

const (
	layerBuild       layer = iota // core.NewSORN, core.BuildCache builds
	layerFluid                    // Network.Throughput (fluid.Solve)
	layerWorkload                 // traffic matrices, flow traces, fault plans
	layerSimSetup                 // SimPool.Acquire, Network.NewSim
	layerSaturated                // core.RunSaturatedOn (phases split via obs)
	layerInject                   // Sim.InjectFlow
	layerStep                     // Sim.Step
	layerFastForward              // Sim.FastForwardTo
	layerControl                  // Controller.Observe, Resilient.Decide
	layerReconfig                 // routing.NewSORN, Sim.Reconfigure
	layerFault                    // faultplan.Driver.Advance
	numLayers
)

// tracer accumulates one traced run's layer timings and counters. Each
// sweep point fills its own tracer and the point tracers are merged in
// point order afterwards, so no field is ever shared between goroutines.
type tracer struct {
	ns, calls [numLayers]int64

	stepNS      []int64 // one entry per timed Step call
	ffSkipped   int64   // slots skipped by FastForwardTo
	simSlots    int64   // simulated slots advanced
	backlogPeak int64

	// Slot-phase wall time in ns. Driven loops time InjectFlow directly;
	// land/transmit/merge are scaled from obs.PhaseStats samples; inside
	// RunSaturatedOn, inject is the call's remaining time (see replicaPoint).
	injectNS, landNS, transmitNS, mergeNS float64
	// injectCells cells were injected in injectCellNS ns.
	injectCells  int64
	injectCellNS float64
	// saturated holds each RunSaturatedOn point's inject estimate; the
	// probe finishes its per-cell cost (see finishSaturated).
	saturated []satPoint

	flows                            int64
	decisions, changes, degraded     int64
	reconfigCells                    int64
	faultEvents                      int64
	delivered, sent, idle, nodeSlots int64
	lost                             int64

	pointNS []int64 // wall time of each sweep point
	workers int     // sweep workers the points ran on

	fluidAlloc, simSetupAlloc uint64 // heap bytes, from the serial probe
}

// satPoint is one saturated run's inject estimate, before the per-cell
// cost is finished by the serial probe (see finishSaturated).
type satPoint struct {
	index         int // sweep point
	seed          uint64
	injectNS      float64 // RunSaturatedOn time not spent in land/transmit/merge
	steppedSlots  int64
	measuredSlots int64
	injectedCells int64 // measurement window only
}

// done records a call into l that started at t0.
func (t *tracer) done(l layer, t0 time.Time) {
	t.ns[l] += int64(time.Since(t0))
	t.calls[l]++
}

// addStats folds a finished run's simulated counters in.
func (t *tracer) addStats(st *netsim.Stats, n int) {
	planes := st.Planes
	if planes == 0 {
		planes = 1
	}
	t.delivered += st.DeliveredCells
	t.sent += st.SentCells
	t.idle += st.IdleSlots
	t.nodeSlots += int64(n) * int64(planes) * st.MeasuredSlots
	t.lost += st.LostCells
}

// phaseObserver returns an observer that only times slot phases: its
// metric series snapshots once per 2^40 slots, i.e. never after slot 0.
// Attaching an observer never changes simulation results.
func phaseObserver() *obs.Observer {
	return obs.New(obs.Options{MetricsEvery: 1 << 40})
}

// addPhases scales an observer's sampled land/transmit/merge times to
// stepped slots. A sharded phase ends when its slowest shard does, so
// the busiest shard's total stands for the phase. Every shard that runs
// a phase times the same sampled slots; merge runs on shard 0 only.
func (t *tracer) addPhases(ob *obs.Observer, stepped int64) {
	for _, ps := range ob.PhaseStats() {
		var busiest, shards int64
		for _, ns := range ps.ShardNS {
			busiest = max(busiest, ns)
			if ns > 0 {
				shards++
			}
		}
		if shards == 0 {
			continue
		}
		est := float64(busiest) * float64(stepped) / (float64(ps.Calls) / float64(shards))
		switch ps.Phase {
		case "land":
			t.landNS += est
		case "transmit":
			t.transmitNS += est
		case "merge":
			t.mergeNS += est
		}
	}
}

// fillSample returns an observer's sampled inject time. On a two-slot
// saturated run that is slot 0 alone: the backlog fill.
func fillSample(ob *obs.Observer) int64 {
	for _, ps := range ob.PhaseStats() {
		if ps.Phase == "inject" {
			return ps.TotalNS
		}
	}
	return 0
}

// finishSaturated completes a saturated point's per-cell inject cost.
// RunSaturated fills every source's backlog in slot 0; after that,
// injection only replaces what the fabric drained. fillNS is the fill's
// own time, measured by a two-slot run of the same point, so the rest of
// the inject time is spread evenly over the remaining slots and the
// measurement window's share is divided by the cells it injected.
func (t *tracer) finishSaturated(p satPoint, fillNS int64) {
	steady := max(p.injectNS-float64(fillNS), 0)
	t.injectCells += p.injectedCells
	t.injectCellNS += steady / float64(max(p.steppedSlots-1, 1)) * float64(p.measuredSlots)
}

// inject times one Sim.InjectFlow.
func (t *tracer) inject(sim *netsim.Sim, src, dst, size int) {
	t0 := time.Now()
	sim.InjectFlow(src, dst, size)
	ns := time.Since(t0)
	t.ns[layerInject] += int64(ns)
	t.calls[layerInject]++
	t.injectNS += float64(ns)
	t.injectCellNS += float64(ns)
	t.injectCells += int64(size)
}

// step times one Sim.Step and tracks the backlog peak.
func (t *tracer) step(sim *netsim.Sim) {
	t0 := time.Now()
	sim.Step()
	ns := int64(time.Since(t0))
	t.ns[layerStep] += ns
	t.calls[layerStep]++
	t.stepNS = append(t.stepNS, ns)
	t.simSlots++
	t.backlogPeak = max(t.backlogPeak, sim.Backlog())
}

// fastForward times one Sim.FastForwardTo.
func (t *tracer) fastForward(sim *netsim.Sim, target int64) {
	t0 := time.Now()
	k := sim.FastForwardTo(target)
	t.done(layerFastForward, t0)
	t.ffSkipped += k
	t.simSlots += k
}

// merge folds a sweep point's tracer into t.
func (t *tracer) merge(o *tracer) {
	for l := range t.ns {
		t.ns[l] += o.ns[l]
		t.calls[l] += o.calls[l]
	}
	t.stepNS = append(t.stepNS, o.stepNS...)
	t.ffSkipped += o.ffSkipped
	t.simSlots += o.simSlots
	t.backlogPeak = max(t.backlogPeak, o.backlogPeak)
	t.injectNS += o.injectNS
	t.landNS += o.landNS
	t.transmitNS += o.transmitNS
	t.mergeNS += o.mergeNS
	t.injectCells += o.injectCells
	t.injectCellNS += o.injectCellNS
	t.saturated = append(t.saturated, o.saturated...)
	t.flows += o.flows
	t.decisions += o.decisions
	t.changes += o.changes
	t.degraded += o.degraded
	t.reconfigCells += o.reconfigCells
	t.faultEvents += o.faultEvents
	t.delivered += o.delivered
	t.sent += o.sent
	t.idle += o.idle
	t.nodeSlots += o.nodeSlots
	t.lost += o.lost
	t.pointNS = append(t.pointNS, o.pointNS...)
}

// layerTotalNS is the time spent inside timed layer calls.
func (t *tracer) layerTotalNS() int64 {
	var s int64
	for _, ns := range t.ns {
		s += ns
	}
	return s
}

// layerMetrics turns a traced replica (run), its traced set-up, the
// replica's wall time and the untraced median wall time into the
// per-layer metric values.
func layerMetrics(setup, run *tracer, tracedWall, untracedWall float64) map[string]float64 {
	s := func(ns float64) float64 { return ns / 1e9 }
	both := func(l layer) (float64, float64) {
		return float64(setup.ns[l] + run.ns[l]), float64(setup.calls[l] + run.calls[l])
	}
	buildNS, buildCalls := both(layerBuild)
	workloadNS, _ := both(layerWorkload)
	simSetupNS, _ := both(layerSimSetup)
	var pointSum, pointMax int64
	for _, p := range run.pointNS {
		pointSum += p
		pointMax = max(pointMax, p)
	}
	workers := max(run.workers, 1)
	return map[string]float64{
		"build.s":                  s(buildNS),
		"build.calls":              buildCalls,
		"fluid.s":                  s(float64(run.ns[layerFluid])),
		"fluid.calls":              float64(run.calls[layerFluid]),
		"fluid.alloc_mb":           float64(run.fluidAlloc) / (1 << 20),
		"workload.s":               s(workloadNS),
		"workload.flows":           float64(run.flows),
		"sim_setup.s":              s(simSetupNS),
		"sim_setup.alloc_mb":       float64(run.simSetupAlloc) / (1 << 20),
		"inject.s":                 s(run.injectNS),
		"inject.cells":             float64(run.injectCells),
		"inject.ns_per_cell":       ratio(run.injectCellNS, float64(run.injectCells)),
		"land.s":                   s(run.landNS),
		"transmit.s":               s(run.transmitNS),
		"merge.s":                  s(run.mergeNS),
		"step.calls":               float64(run.calls[layerStep]),
		"step.us_p50":              percentile(run.stepNS, 50) / 1e3,
		"step.us_p99":              percentile(run.stepNS, 99) / 1e3,
		"fastforward.calls":        float64(run.calls[layerFastForward]),
		"fastforward.skipped_frac": ratio(float64(run.ffSkipped), float64(run.simSlots)),
		"backlog.peak_cells":       float64(run.backlogPeak),
		"sim.idle_frac":            ratio(float64(run.idle), float64(run.nodeSlots)),
		"sim.sent_per_delivered":   ratio(float64(run.sent), float64(run.delivered)),
		"control.s":                s(float64(run.ns[layerControl])),
		"control.decisions":        float64(run.decisions),
		"control.changes":          float64(run.changes),
		"control.degraded_epochs":  float64(run.degraded),
		"reconfig.s":               s(float64(run.ns[layerReconfig])),
		"reconfig.calls":           float64(run.calls[layerReconfig]),
		"reconfig.cells_moved":     float64(run.reconfigCells),
		"fault.s":                  s(float64(run.ns[layerFault])),
		"fault.events":             float64(run.faultEvents),
		"fault.lost_cells":         float64(run.lost),
		"sweep.point_s_p50":        percentile(run.pointNS, 50) / 1e9,
		"sweep.point_s_max":        float64(pointMax) / 1e9,
		"sweep.idle_frac":          1 - ratio(float64(pointSum)/1e9, float64(workers)*tracedWall),
		"trace.overhead_frac":      ratio(tracedWall, untracedWall) - 1,
		"trace.unattributed_frac":  1 - ratio(float64(run.layerTotalNS())/1e9, float64(workers)*tracedWall),
	}
}
