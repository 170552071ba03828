// Package fluid computes exact worst-case throughput for an oblivious or
// semi-oblivious routing scheme over a circuit schedule: it accumulates
// the expected load every traffic-matrix entry places on every directed
// virtual link (via the router's path distribution), compares against the
// link capacities the schedule provides, and reports the maximum demand
// scaling θ at which no link exceeds capacity.
//
// With a saturation traffic matrix (every row summing to 1 node
// bandwidth), θ is exactly the paper's throughput metric r: the fraction
// of node bandwidth deliverable to final destinations. This reproduces
// the theoretical series of Figure 2(f) from first principles rather than
// from the closed form, and cross-validates internal/model.
package fluid

import (
	"fmt"
	"math"

	"repro/internal/matching"
	"repro/internal/routing"
	"repro/internal/workload"
)

// Result reports a fluid solve.
type Result struct {
	// Theta is the max demand scaling with all links within capacity.
	Theta float64
	// BottleneckSrc/Dst identify the binding link.
	BottleneckSrc, BottleneckDst int
	// BottleneckLoad and BottleneckCap are that link's load (at scaling
	// 1) and capacity.
	BottleneckLoad, BottleneckCap float64
	// MeanHops is the demand-weighted mean path length.
	MeanHops float64
	// LinkCount is the number of loaded links.
	LinkCount int
}

// Solve computes link loads for the traffic matrix under the router's
// path distribution and returns the throughput scaling. The schedule
// provides capacities (fraction of node bandwidth per virtual link).
func Solve(s *matching.Schedule, router routing.Router, tm *workload.Matrix) (*Result, error) {
	if tm.N != s.N {
		return nil, fmt.Errorf("fluid: matrix over %d nodes, schedule over %d", tm.N, s.N)
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}

	// Capacities from the schedule: count integer slots per directed link
	// and divide by the period only where a capacity is read, so every
	// capacity is an exact multiple of 1/period. (Accumulating float64
	// increments of 1/period drifts for non-power-of-2 periods once a
	// link repeats.) Link u→v lives at flat index u*n+v; every index is
	// range-checked first, since an out-of-range v would otherwise alias
	// row u+1 instead of failing.
	n := s.N
	slotCount := make([]int, n*n)
	for t, m := range s.Slots {
		if len(m) != n {
			return nil, fmt.Errorf("fluid: schedule slot %d has %d entries, want %d", t, len(m), n)
		}
		for u, v := range m {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("fluid: schedule slot %d maps %d->%d outside [0, %d)", t, u, v, n)
			}
			slotCount[u*n+v]++
		}
	}
	period := float64(s.Period())

	// Expected loads from the router's path distribution. One visitor
	// serves every pair: rate is the current pair's demand, and the path
	// is only read, never kept (see routing.Router.Paths).
	load := make([]float64, n*n)
	var (
		rate, hopWeighted float64
		pathErr           error
	)
	visit := func(p routing.Route, prob float64) {
		if pathErr != nil {
			return
		}
		hopWeighted += rate * prob * float64(p.Hops())
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			if u < 0 || u >= n || v < 0 || v >= n {
				pathErr = fmt.Errorf("fluid: router %s emits hop %d->%d outside [0, %d)",
					router.Name(), u, v, n)
				return
			}
			k := u*n + v
			if slotCount[k] == 0 {
				pathErr = fmt.Errorf("fluid: router %s uses link %d->%d absent from schedule",
					router.Name(), u, v)
				return
			}
			load[k] += rate * prob
		}
	}
	demandTotal := 0.0
	for src := 0; src < n; src++ {
		for dst, r := range tm.Rates[src] {
			if r <= 0 {
				continue
			}
			rate = r
			demandTotal += rate
			router.Paths(src, dst, visit)
			if pathErr != nil {
				return nil, pathErr
			}
		}
	}
	//sornlint:ignore floateq -- exact zero: no positive rate was ever added
	if demandTotal == 0 {
		return nil, fmt.Errorf("fluid: traffic matrix is empty")
	}

	res := &Result{Theta: math.Inf(1), BottleneckSrc: -1, BottleneckDst: -1}
	for k, l := range load {
		if l <= 0 {
			continue
		}
		res.LinkCount++
		c := float64(slotCount[k]) / period
		theta := c / l
		if theta < res.Theta {
			res.Theta = theta
			res.BottleneckSrc, res.BottleneckDst = k/n, k%n
			res.BottleneckLoad, res.BottleneckCap = l, c
		}
	}
	res.MeanHops = hopWeighted / demandTotal
	return res, nil
}

// WorstCaseTheta returns the minimum θ over a set of traffic matrices —
// the worst-case throughput over an adversarial family.
func WorstCaseTheta(s *matching.Schedule, router routing.Router, tms []*workload.Matrix) (float64, error) {
	worst := math.Inf(1)
	for _, tm := range tms {
		r, err := Solve(s, router, tm)
		if err != nil {
			return 0, err
		}
		if r.Theta < worst {
			worst = r.Theta
		}
	}
	if math.IsInf(worst, 1) {
		return 0, fmt.Errorf("fluid: no traffic matrices supplied")
	}
	return worst, nil
}
