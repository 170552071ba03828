package netsim

import (
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// checkOcc verifies the VOQ occupancy bitmap against the queues: bitmap
// rows exist exactly where VOQ rows do, bit (u, v) is set iff voq[u][v]
// holds a cell, and the padding bits past n stay clear.
func (s *Sim) checkOcc() error {
	if len(s.occ) != len(s.voq) {
		return fmt.Errorf("occupancy: %d bitmap rows for %d VOQ rows", len(s.occ), len(s.voq))
	}
	for u, row := range s.voq {
		occ := s.occ[u]
		if (row == nil) != (occ == nil) {
			return fmt.Errorf("occupancy: node %d VOQ row nil=%v, bitmap row nil=%v", u, row == nil, occ == nil)
		}
		if row == nil {
			continue
		}
		if len(occ) != occWords(s.n) {
			return fmt.Errorf("occupancy: node %d bitmap row has %d words, want %d", u, len(occ), occWords(s.n))
		}
		for v := 0; v < len(occ)*64; v++ {
			set := occ[v>>6]>>(v&63)&1 != 0
			if v >= s.n {
				if set {
					return fmt.Errorf("occupancy: node %d padding bit %d set", u, v)
				}
				continue
			}
			if cells := row[v].len(); set != (cells > 0) {
				return fmt.Errorf("occupancy: bit (%d, %d) = %v, queue holds %d cells", u, v, set, cells)
			}
		}
	}
	return nil
}

// checkEveryStep makes s verify its occupancy bitmap after every Step
// (and after every later Reset run), failing t at the first violation.
func checkEveryStep(t *testing.T, s *Sim) {
	t.Helper()
	s.stepCheck = func() {
		if err := s.checkOcc(); err != nil {
			t.Fatalf("slot %d: %v", s.Slot(), err)
		}
	}
}

// TestOccupancyLazyRows covers the bitmap above voqSlabMax, where its
// rows are allocated with the lazy VOQ rows: a sparse open loop on a
// 1088-node SORN through a node failure and a reconfiguration, under
// both engines, checked after every step.
func TestOccupancyLazyRows(t *testing.T) {
	n := 1088 // past voqSlabMax, divisible by both clique counts
	sc, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: 32, Q: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := workload.Locality(sc.Cliques, 0.56)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewPoissonFlows(tm, workload.FixedSize(4), 0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	flows := gen.Window(0, 120)
	sc2, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: 16, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := routing.NewSORN(sc), routing.NewSORN(sc2)
	var ref *Sim
	for _, dense := range []bool{true, false} {
		s, err := New(Config{Schedule: sc.Schedule, Router: r1,
			SlotNS: 100, PropNS: 500, Seed: 5, LatencySampleEvery: 1, Dense: dense, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkEveryStep(t, s)
		s.StartMeasuring()
		if err := s.RunOpenLoop(flows[:len(flows)/2], 60); err != nil {
			t.Fatal(err)
		}
		lazy := 0
		for _, row := range s.voq {
			if row == nil {
				lazy++
			}
		}
		if lazy == 0 {
			t.Fatal("every VOQ row allocated; the lazy-row layout is not exercised")
		}
		s.FailNode(flows[0].Src)
		if err := s.checkOcc(); err != nil {
			t.Fatalf("after FailNode: %v", err)
		}
		if err := s.Reconfigure(sc2.Schedule, r2); err != nil {
			t.Fatal(err)
		}
		if err := s.checkOcc(); err != nil {
			t.Fatalf("after Reconfigure: %v", err)
		}
		if err := s.RunOpenLoop(flows[len(flows)/2:], 120); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000 && !s.Drained(); i++ {
			s.Step()
		}
		checkConservation(t, s)
		if ref == nil {
			ref = s
		} else {
			compareSims(t, ref, s)
		}
	}
}
