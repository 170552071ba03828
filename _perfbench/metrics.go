package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end and per-layer
// tables must match BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics of a --trace 0 run. All are host-side
// and never zero; simulated statistics are output checks, not metrics.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a --trace 1 run. A layer a workload does
// not call reports 0. The work rates and failed_frac come from the
// untraced half of the run: they are end-to-end numbers that are 0 on
// some workloads, so they cannot be gated.
var perLayer = []metricDef{
	{"sim_cells_per_s", "cells/s", "higher"},
	{"sim_slots_per_s", "slots/s", "higher"},
	{"failed_frac", "ratio", "lower"},
	{"build.s", "s", "lower"},
	{"build.calls", "count", "lower"},
	{"fluid.s", "s", "lower"},
	{"fluid.calls", "count", "lower"},
	{"fluid.alloc_mb", "MB", "lower"},
	{"workload.s", "s", "lower"},
	{"workload.flows", "count", "lower"},
	{"sim_setup.s", "s", "lower"},
	{"sim_setup.alloc_mb", "MB", "lower"},
	{"inject.s", "s", "lower"},
	{"inject.cells", "count", "lower"},
	{"inject.ns_per_cell", "ns", "lower"},
	{"land.s", "s", "lower"},
	{"transmit.s", "s", "lower"},
	{"merge.s", "s", "lower"},
	{"step.calls", "count", "lower"},
	{"step.us_p50", "us", "lower"},
	{"step.us_p99", "us", "lower"},
	{"fastforward.calls", "count", "lower"},
	{"fastforward.skipped_frac", "ratio", "higher"},
	{"backlog.peak_cells", "cells", "lower"},
	{"sim.idle_frac", "ratio", "lower"},
	{"sim.sent_per_delivered", "ratio", "lower"},
	{"control.s", "s", "lower"},
	{"control.decisions", "count", "lower"},
	{"control.changes", "count", "lower"},
	{"control.degraded_epochs", "count", "lower"},
	{"reconfig.s", "s", "lower"},
	{"reconfig.calls", "count", "lower"},
	{"reconfig.cells_moved", "cells", "lower"},
	{"fault.s", "s", "lower"},
	{"fault.events", "count", "lower"},
	{"fault.lost_cells", "cells", "lower"},
	{"sweep.point_s_p50", "s", "lower"},
	{"sweep.point_s_max", "s", "lower"},
	{"sweep.idle_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric of defs as a "metric" line and then the
// result JSON. A metric missing from vals is a harness bug.
func emit(w io.Writer, defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // an empty ratio (no work of that kind) reads as zero
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-26s %.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return res, err
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, or 0.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
