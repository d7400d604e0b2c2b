// Package model defines the pipeline/mapping vocabulary shared by the
// scheduler, executor and adaptivity engine, and implements two
// performance models over it:
//
//   - an analytic bottleneck (saturation) model that predicts the
//     steady-state throughput of a mapped pipeline from per-stage work,
//     node speeds/loads and link bandwidths (throughput.go), and
//   - an exact continuous-time Markov-chain solver for small blocking
//     tandem lines (ctmc.go, tandem.go) used to validate the analytic
//     model's assumptions in experiment T2.
package model

import (
	"fmt"
	"strings"

	"gridpipe/internal/grid"
)

// Mapping assigns every pipeline stage to one or more grid nodes.
// Assign[i] lists the nodes hosting stage i; more than one node means
// the stage is replicated (farmed) with items dealt round-robin.
type Mapping struct {
	Assign [][]grid.NodeID
}

// NumStages returns the number of stages the mapping covers.
func (m Mapping) NumStages() int { return len(m.Assign) }

// SingleNode maps all ns stages onto one node.
func SingleNode(ns int, node grid.NodeID) Mapping {
	a := make([][]grid.NodeID, ns)
	for i := range a {
		a[i] = []grid.NodeID{node}
	}
	return Mapping{Assign: a}
}

// OneToOne maps stage i onto node i.
func OneToOne(ns int) Mapping {
	a := make([][]grid.NodeID, ns)
	for i := range a {
		a[i] = []grid.NodeID{grid.NodeID(i)}
	}
	return Mapping{Assign: a}
}

// FromNodes builds an unreplicated mapping from a per-stage node list,
// the tuple notation of the era's mapping tables: FromNodes(0, 0, 1)
// puts stages 1-2 on node 0 and stage 3 on node 1.
func FromNodes(nodes ...grid.NodeID) Mapping {
	a := make([][]grid.NodeID, len(nodes))
	for i, n := range nodes {
		a[i] = []grid.NodeID{n}
	}
	return Mapping{Assign: a}
}

// Contiguous maps a partition of stages into consecutive groups onto
// the given nodes: sizes[i] stages go to nodes[i]. It panics if the
// sizes and nodes disagree.
func Contiguous(sizes []int, nodes []grid.NodeID) Mapping {
	if len(sizes) != len(nodes) {
		panic("model: Contiguous sizes/nodes length mismatch")
	}
	var a [][]grid.NodeID
	for gi, sz := range sizes {
		if sz <= 0 {
			panic("model: Contiguous with non-positive group size")
		}
		for k := 0; k < sz; k++ {
			a = append(a, []grid.NodeID{nodes[gi]})
		}
	}
	return Mapping{Assign: a}
}

// WithReplicas returns a copy of m with stage i replicated across the
// given nodes.
func (m Mapping) WithReplicas(stage int, nodes ...grid.NodeID) Mapping {
	out := m.Clone()
	ns := make([]grid.NodeID, len(nodes))
	copy(ns, nodes)
	out.Assign[stage] = ns
	return out
}

// Clone returns a deep copy.
func (m Mapping) Clone() Mapping {
	a := make([][]grid.NodeID, len(m.Assign))
	for i, ns := range m.Assign {
		a[i] = append([]grid.NodeID(nil), ns...)
	}
	return Mapping{Assign: a}
}

// Validate checks the mapping against a pipeline of ns stages on a grid
// of np nodes.
func (m Mapping) Validate(ns, np int) error {
	if len(m.Assign) != ns {
		return fmt.Errorf("model: mapping covers %d stages, pipeline has %d", len(m.Assign), ns)
	}
	for i, nodes := range m.Assign {
		if len(nodes) == 0 {
			return fmt.Errorf("model: stage %d has no nodes", i)
		}
		// Duplicate detection by pairwise scan: replica lists are a
		// handful of nodes, and the quadratic check keeps Validate — on
		// the search hot path via PredictInto — free of allocations.
		for k, n := range nodes {
			if int(n) < 0 || int(n) >= np {
				return fmt.Errorf("model: stage %d mapped to invalid node %d", i, n)
			}
			for _, prev := range nodes[:k] {
				if prev == n {
					return fmt.Errorf("model: stage %d lists node %d twice", i, n)
				}
			}
		}
	}
	return nil
}

// Equal reports whether two mappings are identical.
func (m Mapping) Equal(o Mapping) bool {
	if len(m.Assign) != len(o.Assign) {
		return false
	}
	for i := range m.Assign {
		if len(m.Assign[i]) != len(o.Assign[i]) {
			return false
		}
		for j := range m.Assign[i] {
			if m.Assign[i][j] != o.Assign[i][j] {
				return false
			}
		}
	}
	return true
}

// UsesNode reports whether any stage is placed on the given node.
func (m Mapping) UsesNode(id grid.NodeID) bool {
	for _, nodes := range m.Assign {
		for _, n := range nodes {
			if n == id {
				return true
			}
		}
	}
	return false
}

// NodesUsed returns the distinct nodes the mapping touches.
func (m Mapping) NodesUsed() []grid.NodeID {
	seen := map[grid.NodeID]bool{}
	var out []grid.NodeID
	for _, nodes := range m.Assign {
		for _, n := range nodes {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// String renders the mapping in tuple notation, e.g. "(0,0,1)" or
// "(0,{1,2},3)" when stage 2 is replicated on nodes 1 and 2.
func (m Mapping) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, nodes := range m.Assign {
		if i > 0 {
			b.WriteByte(',')
		}
		if len(nodes) == 1 {
			fmt.Fprintf(&b, "%d", nodes[0])
		} else {
			b.WriteByte('{')
			for j, n := range nodes {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", n)
			}
			b.WriteByte('}')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// VisitMappings streams every unreplicated mapping of ns stages onto
// the given candidate nodes (len(nodes)^ns mappings) to the visitor,
// in lexicographic order (stage 0 varies slowest, the last stage
// fastest). The visitor returns false to stop early.
//
// The Mapping passed to the visitor is REUSED between calls: its
// Assign rows alias one backing array that the enumerator rewrites in
// place. A visitor that needs to retain a candidate must Clone it.
// Because nothing is materialized the memory cost is O(ns) regardless
// of the space's size.
func VisitMappings(ns int, nodes []grid.NodeID, visit func(Mapping) bool) error {
	if ns <= 0 {
		return fmt.Errorf("model: VisitMappings with %d stages", ns)
	}
	if len(nodes) == 0 {
		return fmt.Errorf("model: VisitMappings with no candidate nodes")
	}
	// One reusable mapping: rows[i] is a one-element window over
	// backing, so rewriting backing rewrites the candidate in place.
	backing := make([]grid.NodeID, ns)
	rows := make([][]grid.NodeID, ns)
	for i := range rows {
		backing[i] = nodes[0]
		rows[i] = backing[i : i+1]
	}
	m := Mapping{Assign: rows}
	// idx[i] is the odometer position of stage i in nodes.
	idx := make([]int, ns)
	for {
		if !visit(m) {
			return nil
		}
		// Advance the odometer (last stage varies fastest).
		i := ns - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(nodes) {
				backing[i] = nodes[idx[i]]
				break
			}
			idx[i] = 0
			backing[i] = nodes[0]
		}
		if i < 0 {
			return nil
		}
	}
}
