package model

import (
	"fmt"
	"math"

	"gridpipe/internal/grid"
)

// JobSpec describes one tenant of a shared cluster: a pipeline plus
// the job-level attributes the admission controller and the arbiter
// plan with. The single-job world is the degenerate case — one JobSpec
// with Weight 1 and no floor — and every field beyond Spec defaults to
// it.
type JobSpec struct {
	// Name labels the job in tables and admission errors.
	Name string
	// Spec is the job's pipeline.
	Spec PipelineSpec
	// Weight is the job's fairness weight for weighted max-min
	// arbitration (default 1). A weight-2 job is entitled to twice the
	// capacity of a weight-1 job when both are backlogged.
	Weight float64
	// FloorNodes is the minimum number of nodes the job needs to run
	// at all — its admission floor. Zero means one node.
	FloorNodes int
	// Arrival is the virtual time at which the job enters the cluster.
	Arrival float64
	// Items is how many items the job processes to completion.
	Items int
	// CV is the coefficient of variation of per-item service demand.
	CV float64
}

// Validate reports specification errors. np is the cluster's node
// count; a floor above it can never be met and is rejected here so
// admission control fails cleanly instead of queueing forever.
func (j JobSpec) Validate(np int) error {
	if err := j.Spec.Validate(); err != nil {
		return fmt.Errorf("model: job %q: %w", j.Name, err)
	}
	if j.Weight < 0 {
		return fmt.Errorf("model: job %q has negative weight %v", j.Name, j.Weight)
	}
	if math.IsNaN(j.Weight) || math.IsInf(j.Weight, 0) {
		return fmt.Errorf("model: job %q has non-finite weight %v", j.Name, j.Weight)
	}
	if j.FloorNodes < 0 {
		return fmt.Errorf("model: job %q has negative floor %d", j.Name, j.FloorNodes)
	}
	if np > 0 && j.FloorNodes > np {
		return fmt.Errorf("model: job %q floor of %d nodes exceeds the %d-node grid", j.Name, j.FloorNodes, np)
	}
	if j.Arrival < 0 || math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) {
		return fmt.Errorf("model: job %q has invalid arrival time %v", j.Name, j.Arrival)
	}
	if j.Items <= 0 {
		return fmt.Errorf("model: job %q has non-positive item count %d", j.Name, j.Items)
	}
	return nil
}

// NormWeight returns the job's fairness weight with the default
// applied (zero means 1).
func (j JobSpec) NormWeight() float64 {
	if j.Weight <= 0 {
		return 1
	}
	return j.Weight
}

// Floor returns the job's admission floor with the default applied
// (zero means 1 node).
func (j JobSpec) Floor() int {
	if j.FloorNodes <= 0 {
		return 1
	}
	return j.FloorNodes
}

// CapacityMask is a per-node lease: Mask[n] true means the job may
// place stages on node n. It is the cluster arbiter's currency — the
// sched layer consumes it directly as a SearchAvail availability mask.
type CapacityMask []bool

// NewCapacityMask returns a mask admitting every one of np nodes.
func NewCapacityMask(np int) CapacityMask {
	m := make(CapacityMask, np)
	for i := range m {
		m[i] = true
	}
	return m
}

// Count returns the number of admitted nodes.
func (m CapacityMask) Count() int {
	c := 0
	for _, ok := range m {
		if ok {
			c++
		}
	}
	return c
}

// Capacity returns the total speed×cores capacity the mask admits on
// the grid.
func (m CapacityMask) Capacity(g *grid.Grid) float64 {
	total := 0.0
	for i, ok := range m {
		if ok {
			n := g.Node(grid.NodeID(i))
			total += n.Speed * float64(n.Cores)
		}
	}
	return total
}

// Intersect returns the element-wise AND of two masks (nil acts as
// all-true).
func (m CapacityMask) Intersect(o CapacityMask) CapacityMask {
	if m == nil {
		return append(CapacityMask(nil), o...)
	}
	out := append(CapacityMask(nil), m...)
	if o == nil {
		return out
	}
	for i := range out {
		out[i] = out[i] && i < len(o) && o[i]
	}
	return out
}

// String renders the mask as the admitted node list, e.g. "{0,2,3}".
func (m CapacityMask) String() string {
	s := "{"
	first := true
	for i, ok := range m {
		if !ok {
			continue
		}
		if !first {
			s += ","
		}
		first = false
		s += fmt.Sprintf("%d", i)
	}
	return s + "}"
}
