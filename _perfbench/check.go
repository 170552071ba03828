package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// outcome is one repetition's checked result.
type outcome struct {
	ops    int      // operations attempted: sweep points, design runs, open-loop runs
	failed int      // operations that returned an error or failed an output check
	errs   []string // one line per failure
	digest string   // hash of the simulated (or solved) output
	cells  int64    // delivered simulated cells
	slots  int64    // simulated slots advanced, stepped or fast-forwarded
}

// fail marks one operation failed.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// failAll marks every operation failed (an error aborted the whole run).
func (o *outcome) failAll(err error) {
	o.failed = o.ops
	o.errs = append(o.errs, err.Error())
	o.digest = "error"
}

// digester hashes simulated output bit for bit, so two runs with equal
// digests produced identical statistics.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digester) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digester) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digester) sample(s *stats.Sample) {
	vs := s.Values()
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.float(v)
	}
}

// stats hashes every counter and every latency/FCT sample stream.
func (d *digester) stats(st *netsim.Stats) {
	for _, c := range []int64{st.DeliveredCells, st.InjectedCells, st.SentCells, st.IdleSlots,
		st.LostCells, st.DroppedCells, st.MeasuredSlots, st.CompletedFlows, int64(st.Planes)} {
		d.int(c)
	}
	d.sample(&st.LatencySlots)
	d.sample(&st.FCTSlots)
	for i := range st.LatencyByHops {
		d.sample(&st.LatencyByHops[i])
	}
}

// fig2fPoint hashes one sweep point's reported values.
func (d *digester) fig2fPoint(p experiments.Fig2fPoint) {
	d.float(p.X)
	d.float(p.Theory)
	d.float(p.Fluid)
	d.float(p.Sim)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// simBudget is the finite-horizon agreement budget between a saturated
// simulation's throughput and the fluid θ of the same schedule, as
// calibrated by the differential-testing oracle: a base for queueing
// effects, a partial-period term, and a CLT term for the measured slots.
func simBudget(period int, measure int64) float64 {
	m := float64(measure)
	return 0.05 + 1.5*float64(period)/m + 2/math.Sqrt(m)
}

// relClose reports |a−b| ≤ budget·max(|a|,|b|).
func relClose(a, b, budget float64) bool {
	return math.Abs(a-b) <= budget*math.Max(math.Abs(a), math.Abs(b))
}

// conserved checks that every injected cell is delivered, lost, dropped,
// queued or in flight.
func conserved(st *netsim.Stats, backlog, inFlight int64) error {
	acc := st.DeliveredCells + st.LostCells + st.DroppedCells + backlog + inFlight
	if st.InjectedCells != acc {
		return fmt.Errorf("cell conservation: injected %d != delivered %d + lost %d + dropped %d + backlog %d + in flight %d",
			st.InjectedCells, st.DeliveredCells, st.LostCells, st.DroppedCells, backlog, inFlight)
	}
	return nil
}
