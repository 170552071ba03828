package matching_test

import (
	"sort"
	"testing"

	"repro/internal/matching"
	"repro/internal/schedule"
)

// pairLists is the per-pair slot-list index Compile used to build — one
// slice per (u, v) — kept here as the reference its flat index must
// reproduce.
type pairLists struct {
	period int
	lists  [][][]int32
}

func newPairLists(s *matching.Schedule) *pairLists {
	r := &pairLists{period: s.Period(), lists: make([][][]int32, s.N)}
	for u := range r.lists {
		r.lists[u] = make([][]int32, s.N)
	}
	for t, m := range s.Slots {
		for u, v := range m {
			r.lists[u][v] = append(r.lists[u][v], int32(t))
		}
	}
	return r
}

func (r *pairLists) nextSlot(u, v, from int) (int, bool) {
	slots := r.lists[u][v]
	if len(slots) == 0 {
		return 0, false
	}
	base := from / r.period * r.period
	phase := int32(from % r.period)
	i := sort.Search(len(slots), func(i int) bool { return slots[i] >= phase })
	if i < len(slots) {
		return base + int(slots[i]), true
	}
	return base + r.period + int(slots[0]), true
}

func (r *pairLists) maxWait(u, v int) (int, bool) {
	slots := r.lists[u][v]
	if len(slots) == 0 {
		return 0, false
	}
	max := 0
	for i := range slots {
		gap := int(slots[0]) + r.period - int(slots[len(slots)-1])
		if i > 0 {
			gap = int(slots[i]) - int(slots[i-1])
		}
		if gap > max {
			max = gap
		}
	}
	return max, true
}

// TestCompileMatchesPairLists checks every query of the flat index
// against the per-pair lists, for every ordered pair (self pairs
// included) and every start slot over two periods, on a SORN schedule
// (pairs repeat within a period), a 2-D optimal ORN and a round robin.
func TestCompileMatchesPairLists(t *testing.T) {
	sorn, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	orn, err := schedule.BuildOptimalORN(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sched *matching.Schedule
	}{
		{"sorn", sorn.Schedule},
		{"orn", orn.Schedule},
		{"roundrobin", matching.RoundRobin(13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sched
			c := matching.Compile(s)
			ref := newPairLists(s)
			for u := 0; u < s.N; u++ {
				for v := 0; v < s.N; v++ {
					if got, want := c.HasCircuit(u, v), len(ref.lists[u][v]) > 0; got != want {
						t.Fatalf("HasCircuit(%d,%d) = %v, want %v", u, v, got, want)
					}
					gw, gok := c.MaxWait(u, v)
					ww, wok := ref.maxWait(u, v)
					if gw != ww || gok != wok {
						t.Fatalf("MaxWait(%d,%d) = %d,%v, want %d,%v", u, v, gw, gok, ww, wok)
					}
					for from := 0; from < 2*s.Period(); from++ {
						got, ok := c.NextSlot(u, v, from)
						want, wok := ref.nextSlot(u, v, from)
						if got != want || ok != wok {
							t.Fatalf("NextSlot(%d,%d,%d) = %d,%v, want %d,%v", u, v, from, got, ok, want, wok)
						}
						wait, ok := c.WaitSlots(u, v, from)
						if wok && (!ok || wait != want-from) {
							t.Fatalf("WaitSlots(%d,%d,%d) = %d,%v, want %d", u, v, from, wait, ok, want-from)
						}
						if !wok && ok {
							t.Fatalf("WaitSlots(%d,%d,%d) reports a circuit the lists lack", u, v, from)
						}
					}
				}
			}
		})
	}
}
