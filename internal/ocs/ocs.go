// Package ocs models the optical circuit switching substrate of the paper's
// §4–§5: a wavelength-selective switch (AWGR-style, as in Sirius) that
// realizes one matching per wavelength, the per-node transmit state that
// implements a circuit schedule (Figure 2c), and the schedule-update
// planning a semi-oblivious control plane performs when it adapts the
// topology.
//
// The key physical property modeled: the circuit schedule lives entirely in
// node state (which wavelength each node transmits in each slot), so
// reconfiguring the logical topology is a synchronized rewrite of node
// state, not a change to the passive optical core.
package ocs

import (
	"fmt"

	"repro/internal/matching"
)

// Switch is a wavelength-selective optical circuit switch with one port
// per node. Wavelength λk (k in [1, Ports)) routes light entering port s
// to port (s+k) mod Ports — the arrayed waveguide grating router (AWGR)
// behavior of Figure 2(a). The switch is passive: it holds no schedule.
type Switch struct {
	ports int
}

// NewAWGR returns an AWGR-style switch with the given port count.
func NewAWGR(ports int) (*Switch, error) {
	if ports < 2 {
		return nil, fmt.Errorf("ocs: switch needs at least 2 ports, got %d", ports)
	}
	return &Switch{ports: ports}, nil
}

// Ports returns the port count.
func (sw *Switch) Ports() int { return sw.ports }

// NumWavelengths returns the number of usable wavelengths (port count − 1;
// wavelength 0 would route a port to itself).
func (sw *Switch) NumWavelengths() int { return sw.ports - 1 }

// Matching returns the matching wavelength λk realizes (Figure 2(b)).
func (sw *Switch) Matching(k int) matching.Matching {
	return matching.CyclicShift(sw.ports, k)
}

// WavelengthFor returns the wavelength a node at port src must transmit to
// reach port dst, and whether such a wavelength exists (it does for all
// src ≠ dst on an AWGR).
func (sw *Switch) WavelengthFor(src, dst int) (int, bool) {
	if src == dst || src < 0 || dst < 0 || src >= sw.ports || dst >= sw.ports {
		return 0, false
	}
	return ((dst-src)%sw.ports + sw.ports) % sw.ports, true
}

// NodeState is the per-node hardware state of Figure 2(c): the wavelength
// to transmit in each slot of the schedule period, plus the fixed set of
// neighbors for which the NIC keeps queues. The schedule is realized by
// all nodes cycling this state synchronously.
type NodeState struct {
	Node         int
	TxWavelength []int // per slot in the period
	Neighbors    []int // sorted superset of destinations ever circuited to
}

// CompileNodeStates lowers a schedule onto a switch, producing the transmit
// state every node must hold. It fails if any slot requires a circuit the
// switch cannot realize.
func CompileNodeStates(sw *Switch, s *matching.Schedule) ([]NodeState, error) {
	if s.N != sw.Ports() {
		return nil, fmt.Errorf("ocs: schedule over %d nodes does not fit %d-port switch", s.N, sw.Ports())
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	states := make([]NodeState, s.N)
	for node := 0; node < s.N; node++ {
		tx := make([]int, s.Period())
		for t := range s.Slots {
			dst := s.Slots[t][node]
			w, ok := sw.WavelengthFor(node, dst)
			if !ok {
				return nil, fmt.Errorf("ocs: slot %d: no wavelength connects %d->%d", t, node, dst)
			}
			tx[t] = w
		}
		states[node] = NodeState{
			Node:         node,
			TxWavelength: tx,
			Neighbors:    s.Neighbors(node),
		}
	}
	return states, nil
}

// StateBytes estimates the NIC state footprint of one node: one wavelength
// index per schedule slot (2 bytes each, enough for 64k-port gratings)
// plus one queue descriptor (16 bytes) per neighbor. The paper argues this
// scales well because SORN keeps the neighbor superset fixed and the
// period short (§5).
func (ns *NodeState) StateBytes() int {
	return 2*len(ns.TxWavelength) + 16*len(ns.Neighbors)
}

// Update is a planned transition between two schedules over the same
// nodes, as computed by the control plane before a synchronized rewrite.
type Update struct {
	// SlotChanges[node] counts slots whose transmit wavelength changes.
	SlotChanges []int
	// AddedNeighbors / RemovedNeighbors list, per node, destinations that
	// gain or lose circuits entirely. Removed neighbors require queue
	// drains before the update; SORN rebalancing aims to keep both empty
	// (fixed neighbor superset, varying bandwidth — paper §5).
	AddedNeighbors   [][]int
	RemovedNeighbors [][]int
	OldPeriod        int
	NewPeriod        int
}

// PlanUpdate diffs two schedules. Periods may differ; per-slot comparison
// is over the least common multiple of the two periods, since that is the
// granularity at which node state tables are rewritten.
func PlanUpdate(old, new *matching.Schedule) (*Update, error) {
	if old.N != new.N {
		return nil, fmt.Errorf("ocs: schedule sizes differ: %d vs %d", old.N, new.N)
	}
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("ocs: old schedule: %w", err)
	}
	if err := new.Validate(); err != nil {
		return nil, fmt.Errorf("ocs: new schedule: %w", err)
	}
	n := old.N
	u := &Update{
		SlotChanges:      make([]int, n),
		AddedNeighbors:   make([][]int, n),
		RemovedNeighbors: make([][]int, n),
		OldPeriod:        old.Period(),
		NewPeriod:        new.Period(),
	}
	l := lcm(old.Period(), new.Period())
	for t := 0; t < l; t++ {
		om := old.Slots[t%old.Period()]
		nm := new.Slots[t%new.Period()]
		for node := 0; node < n; node++ {
			if om[node] != nm[node] {
				u.SlotChanges[node]++
			}
		}
	}
	// One pass over each schedule's slots marks every circuit it uses;
	// scanning a node's row in destination order then yields its added
	// and removed neighbors already sorted (nil when there are none).
	const inOld, inNew = 1, 2
	circuits := make([]uint8, n*n)
	for _, m := range old.Slots {
		for node, dst := range m {
			circuits[node*n+dst] |= inOld
		}
	}
	for _, m := range new.Slots {
		for node, dst := range m {
			circuits[node*n+dst] |= inNew
		}
	}
	for node := 0; node < n; node++ {
		for dst, c := range circuits[node*n : (node+1)*n] {
			switch c {
			case inNew:
				u.AddedNeighbors[node] = append(u.AddedNeighbors[node], dst)
			case inOld:
				u.RemovedNeighbors[node] = append(u.RemovedNeighbors[node], dst)
			}
		}
	}
	return u, nil
}

// DrainsRequired returns the total number of (node, neighbor) queues that
// must be drained before the update can be applied safely.
func (u *Update) DrainsRequired() int {
	total := 0
	for _, r := range u.RemovedNeighbors {
		total += len(r)
	}
	return total
}

// TotalSlotChanges returns the sum of per-node slot rewrites.
func (u *Update) TotalSlotChanges() int {
	total := 0
	for _, c := range u.SlotChanges {
		total += c
	}
	return total
}

// PreservesNeighborSuperset reports whether the update keeps every node's
// neighbor set intact or growing — the property that lets SORN rebalance
// bandwidth without draining queues (paper §5).
func (u *Update) PreservesNeighborSuperset() bool {
	return u.DrainsRequired() == 0
}

// Fabric ties a switch, a current schedule, and its compiled node states
// together, and applies updates with synchronized-epoch semantics: an
// update takes effect at a slot that is a multiple of the new period, as
// a logically centralized control plane would arrange (paper §5, [9]).
type Fabric struct {
	sw       *Switch
	schedule *matching.Schedule
	states   []NodeState
	epoch    int // number of applied updates
}

// NewFabric creates a fabric running an initial schedule.
func NewFabric(sw *Switch, s *matching.Schedule) (*Fabric, error) {
	states, err := CompileNodeStates(sw, s)
	if err != nil {
		return nil, err
	}
	return &Fabric{sw: sw, schedule: s, states: states}, nil
}

// Schedule returns the active schedule.
func (f *Fabric) Schedule() *matching.Schedule { return f.schedule }

// States returns the compiled per-node transmit states.
func (f *Fabric) States() []NodeState { return f.states }

// Epoch returns how many updates have been applied.
func (f *Fabric) Epoch() int { return f.epoch }

// Apply transitions the fabric to a new schedule, first planning the
// update. It returns the plan so callers can account for drains.
func (f *Fabric) Apply(s *matching.Schedule) (*Update, error) {
	u, err := PlanUpdate(f.schedule, s)
	if err != nil {
		return nil, err
	}
	states, err := CompileNodeStates(f.sw, s)
	if err != nil {
		return nil, err
	}
	f.schedule = s
	f.states = states
	f.epoch++
	return u, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
