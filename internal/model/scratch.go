// Prediction scratch: the reusable buffers behind PredictInto, so the
// scheduler's search loops — thousands of analytic evaluations per
// adaptation decision — run without allocating per candidate. A
// sync.Pool keeps warm scratches available to every strategy without
// threading an explicit context through each call site; hot loops that
// evaluate many candidates should Acquire once and Release when done
// rather than pay the pool round-trip per evaluation.
package model

import (
	"sync"

	"gridpipe/internal/grid"
)

// flowEntry is one directed link's accumulated per-item bytes. gr is
// the batch size the model charges per-message link latency at: when
// flows crossing the same node pair travel at different grains (a
// per-boundary grain vector), the finest grain dominates — it sends
// the most messages — so merging keeps the minimum.
type flowEntry struct {
	a, b  grid.NodeID
	bytes float64
	gr    float64
}

// PredictScratch holds every intermediate buffer one analytic
// evaluation needs: per-node busy times, the link-flow accumulator,
// and the critical-path table for stage graphs. The zero value is
// ready to use; buffers grow on first use and are retained across
// evaluations.
type PredictScratch struct {
	busy  []float64
	flows []flowEntry
	ready []float64
}

// NewPredictScratch returns an empty scratch. Prefer
// AcquirePredictScratch/ReleasePredictScratch in steady-state loops so
// warmed buffers are shared.
func NewPredictScratch() *PredictScratch { return &PredictScratch{} }

var predictScratchPool = sync.Pool{New: func() any { return &PredictScratch{} }}

// AcquirePredictScratch takes a warm scratch from the package pool.
func AcquirePredictScratch() *PredictScratch {
	return predictScratchPool.Get().(*PredictScratch)
}

// ReleasePredictScratch returns a scratch to the pool. The caller must
// not use the scratch — or any Prediction.NodeBusy aliasing it — after
// release.
func ReleasePredictScratch(s *PredictScratch) { predictScratchPool.Put(s) }

// busyFor returns the per-node busy buffer sized and zeroed for np
// nodes.
func (s *PredictScratch) busyFor(np int) []float64 {
	if cap(s.busy) < np {
		s.busy = make([]float64, np)
	}
	s.busy = s.busy[:np]
	for i := range s.busy {
		s.busy[i] = 0
	}
	return s.busy
}

// readyFor returns the critical-path table sized (not zeroed: every
// entry is written before read) for ns stages.
func (s *PredictScratch) readyFor(ns int) []float64 {
	if cap(s.ready) < ns {
		s.ready = make([]float64, ns)
	}
	return s.ready[:ns]
}

// addFlow accumulates bytes onto the directed pair (a, b), keeping the
// finest grain seen for the pair. Linear search keeps the accumulator
// allocation-free; the distinct-pair count is bounded by the stage
// graph's edges times replica fan, which is small in every workload
// the searches rate.
func (s *PredictScratch) addFlow(a, b grid.NodeID, bytes, gr float64) {
	for i := range s.flows {
		if s.flows[i].a == a && s.flows[i].b == b {
			s.flows[i].bytes += bytes
			if gr < s.flows[i].gr {
				s.flows[i].gr = gr
			}
			return
		}
	}
	s.flows = append(s.flows, flowEntry{a: a, b: b, bytes: bytes, gr: gr})
}

// CloneBusyInto copies the prediction's NodeBusy into dst (grown as
// needed) and repoints the prediction at the copy — the way callers
// detach a retained Prediction from a scratch they are about to reuse
// or release. It returns the (possibly regrown) dst for reuse.
func (p *Prediction) CloneBusyInto(dst []float64) []float64 {
	dst = append(dst[:0], p.NodeBusy...)
	p.NodeBusy = dst
	return dst
}

// BestVisitor is the streaming argmin over candidate mappings: feed it
// to VisitMappings (or call Offer per candidate) and read the winner
// from Mapping/Pred when done. Ties break towards the earlier
// candidate, exactly like Best over a materialized slice — so
// VisitMappings + BestVisitor chooses the same mapping as Best over
// every candidate, while holding one candidate in memory instead of
// np^ns.
//
// The zero value is NOT ready: construct with NewBestVisitor. The
// visitor owns its result storage and reuses it across Reset, so a
// steady-state caller allocates nothing per enumeration.
type BestVisitor struct {
	g     *grid.Grid
	spec  PipelineSpec
	loads []float64

	scratch *PredictScratch
	pooled  bool

	found     bool
	pred      Prediction
	bestBusy  []float64
	backing   []grid.NodeID
	rows      [][]grid.NodeID
	err       error
	evaluated int
}

// NewBestVisitor returns a streaming argmin rating candidates for spec
// on g under the given load estimates, drawing its prediction scratch
// from the package pool. Call Close when done to return the scratch.
func NewBestVisitor(g *grid.Grid, spec PipelineSpec, loads []float64) *BestVisitor {
	return &BestVisitor{g: g, spec: spec, loads: loads,
		scratch: AcquirePredictScratch(), pooled: true}
}

// Reset rearms the visitor for a new enumeration over the same grid,
// spec and loads, keeping its grown buffers.
func (bv *BestVisitor) Reset(loads []float64) {
	bv.loads = loads
	bv.found = false
	bv.err = nil
	bv.evaluated = 0
}

// Close releases the pooled scratch. The winner's Mapping and Pred
// remain valid: they live in visitor-owned storage.
func (bv *BestVisitor) Close() {
	if bv.pooled && bv.scratch != nil {
		ReleasePredictScratch(bv.scratch)
		bv.scratch = nil
		bv.pooled = false
	}
}

// Visit rates one candidate and keeps it if it strictly beats the
// incumbent. It is the func(Mapping) bool VisitMappings expects:
// enumeration stops early only on an evaluation error.
func (bv *BestVisitor) Visit(m Mapping) bool {
	p, err := PredictInto(bv.g, bv.spec, m, bv.loads, bv.scratch)
	if err != nil {
		bv.err = err
		return false
	}
	bv.evaluated++
	if bv.found && p.Throughput <= bv.pred.Throughput {
		return true
	}
	bv.keep(m, p)
	return true
}

// keep copies the candidate and its prediction into visitor-owned
// storage (the candidate is reused by the enumerator).
func (bv *BestVisitor) keep(m Mapping, p Prediction) {
	bv.found = true
	ns := len(m.Assign)
	total := 0
	for _, nodes := range m.Assign {
		total += len(nodes)
	}
	if cap(bv.backing) < total {
		bv.backing = make([]grid.NodeID, total)
	}
	bv.backing = bv.backing[:0]
	if cap(bv.rows) < ns {
		bv.rows = make([][]grid.NodeID, ns)
	}
	bv.rows = bv.rows[:ns]
	for i, nodes := range m.Assign {
		start := len(bv.backing)
		bv.backing = append(bv.backing, nodes...)
		bv.rows[i] = bv.backing[start:len(bv.backing):len(bv.backing)]
	}
	bv.bestBusy = p.CloneBusyInto(bv.bestBusy)
	bv.pred = p
}

// Found reports whether any candidate was evaluated successfully.
func (bv *BestVisitor) Found() bool { return bv.found }

// Err returns the evaluation error that stopped the enumeration, if
// any.
func (bv *BestVisitor) Err() error { return bv.err }

// Evaluated returns how many candidates were rated.
func (bv *BestVisitor) Evaluated() int { return bv.evaluated }

// Mapping returns the winning candidate. It aliases visitor-owned
// storage that the next Visit improvement or Reset may rewrite; Clone
// to retain it past the visitor's lifetime.
func (bv *BestVisitor) Mapping() Mapping { return Mapping{Assign: bv.rows} }

// Pred returns the winner's prediction (NodeBusy in visitor-owned
// storage, same caveat as Mapping).
func (bv *BestVisitor) Pred() Prediction { return bv.pred }
