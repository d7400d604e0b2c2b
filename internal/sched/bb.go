// Branch-and-bound exhaustive search. The enumeration walks the
// assignment tree depth-first (stage 0 outermost, node IDs ascending —
// the exact order model.VisitMappings streams), carrying two partial
// bounds down the path:
//
//   - node bound: per-node busy seconds accumulate stage by stage in
//     the same order Predict sums them, so every partial sum is an FP
//     prefix of the final sum and 1/max(busy/cores) is a true upper
//     bound on the candidate's node-limited throughput;
//   - link bound (chain specs only): per-pair link bytes accumulate
//     edge by edge in Predict's program order, so bandwidth/partial-
//     bytes upper-bounds the final link bound. Stage graphs with an
//     explicit Topo skip this bound — their edge order is not aligned
//     with stage depth, and a reordered partial sum could dip below
//     the final value by an ulp and overprune.
//
// A subtree whose bound cannot STRICTLY beat the incumbent is cut.
// Because the walk visits candidates in enumeration order and the
// incumbent only improves on strict `>`, the surviving winner — and
// its prediction — is bit-identical to rating every candidate with
// model.Best: pruning removes only candidates that could never have
// replaced it.
package sched

import (
	"fmt"
	"math"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

// exhaustiveLimit caps the candidate count an exhaustive search will
// walk: np^ns grows fast, and a space past it is refused up front
// rather than searched for minutes.
const exhaustiveLimit = 1 << 20

// bbState is the per-search context of the branch-and-bound walk,
// embedded in Scratch so the recursion allocates nothing.
type bbState struct {
	g     *grid.Grid
	spec  model.PipelineSpec
	loads []float64
	ids   []grid.NodeID
	np    int
	ns    int
	chain bool

	maxPC  float64 // running max of partial busy/cores over touched nodes
	linkUB float64 // running min of bandwidth/partial-bytes over touched pairs

	found     bool
	bestThr   float64
	pred      model.Prediction
	evaluated uint64
	err       error
}

// searchScratch implements scratchSearcher: the pruned exhaustive
// search over the available nodes.
func (s Exhaustive) searchScratch(sc *Scratch, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	ns := spec.NumStages()
	if ns <= 0 {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: empty pipeline")
	}
	ids, err := sc.idsFor(g, avail)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	// Refuse obviously explosive spaces before enumerating.
	if float64(ns)*math.Log(float64(len(ids))) > math.Log(exhaustiveLimit) {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf(
			"sched: exhaustive search over %d^%d mappings is infeasible", len(ids), ns)
	}
	np := g.NumNodes()
	if loads != nil && len(loads) != np {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf(
			"model: %d load estimates for %d nodes", len(loads), np)
	}

	// Per-(stage, node) busy increments, exactly the terms Predict
	// accumulates: Work/effective-speed (the unreplicated share is 1,
	// and 1.0*w is exact, so the precomputed quotient is bit-identical
	// to Predict's).
	eff := sc.effFor(g, loads)
	if cap(sc.wOverEff) < ns*np {
		sc.wOverEff = make([]float64, ns*np)
	}
	sc.wOverEff = sc.wOverEff[:ns*np]
	for d, st := range spec.Stages {
		for n := 0; n < np; n++ {
			sc.wOverEff[d*np+n] = st.Work / eff[n]
		}
	}
	if cap(sc.cores) < np {
		sc.cores = make([]float64, np)
	}
	sc.cores = sc.cores[:np]
	if cap(sc.busy) < np {
		sc.busy = make([]float64, np)
	}
	sc.busy = sc.busy[:np]
	for n := 0; n < np; n++ {
		sc.cores[n] = float64(g.Node(grid.NodeID(n)).Cores)
		sc.busy[n] = 0
	}
	// Incoming chain-edge bytes per depth: source→stage0, then each
	// stage's OutBytes into its successor. (The exit→sink edge never
	// enters the bound; leaves are rated by the full model anyway.)
	if cap(sc.bbBytes) < ns {
		sc.bbBytes = make([]float64, ns)
	}
	sc.bbBytes = sc.bbBytes[:ns]
	sc.bbBytes[0] = spec.InBytes
	for d := 1; d < ns; d++ {
		sc.bbBytes[d] = spec.Stages[d-1].OutBytes
	}
	sc.bbAssign, sc.bbRows = sizeRows(sc.bbAssign, sc.bbRows, ns)
	sc.resultRows(ns)
	sc.flows = sc.flows[:0]

	sc.bb = bbState{
		g: g, spec: spec, loads: loads, ids: ids,
		np: np, ns: ns, chain: spec.Topo == nil,
		linkUB: math.Inf(1),
	}
	sc.bbRec(0)
	bb := &sc.bb
	if s.Counters != nil {
		total := uint64(1)
		for i := 0; i < ns; i++ {
			total *= uint64(len(ids)) // guarded ≤ exhaustiveLimit above
		}
		s.Counters.Candidates += total
		s.Counters.Evaluated += bb.evaluated
	}
	if bb.err != nil {
		return model.Mapping{}, model.Prediction{}, bb.err
	}
	if !bb.found {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("model: no candidate mappings")
	}
	return model.Mapping{Assign: sc.resRows}, bb.pred, nil
}

// bbRec extends the partial assignment at stage depth d with every
// available node, descending only into subtrees whose bound could
// still strictly beat the incumbent.
func (sc *Scratch) bbRec(d int) {
	bb := &sc.bb
	lastDepth := bb.ns - 1
	bytes := sc.bbBytes[d]
	for _, n := range bb.ids {
		ni := int(n)
		sc.bbAssign[d] = n

		// Push the node bound: this stage's busy lands on n in stage
		// order, an exact prefix of Predict's accumulation.
		prevBusy := sc.busy[ni]
		nb := prevBusy + sc.wOverEff[d*bb.np+ni]
		sc.busy[ni] = nb
		prevMax := bb.maxPC
		if pc := nb / sc.cores[ni]; pc > bb.maxPC {
			bb.maxPC = pc
		}

		// Push the link bound (chains only): the edge into stage d.
		prevLink := bb.linkUB
		flowsLen := len(sc.flows)
		touched := -1
		var touchedPrev float64
		if bb.chain && bytes != 0 {
			a := bb.spec.Source
			if d > 0 {
				a = sc.bbAssign[d-1]
			}
			if a != n {
				acc := bytes
				for i := range sc.flows {
					if sc.flows[i].a == a && sc.flows[i].b == n {
						touched, touchedPrev = i, sc.flows[i].bytes
						acc = touchedPrev + bytes
						sc.flows[i].bytes = acc
						break
					}
				}
				if touched < 0 {
					sc.flows = append(sc.flows, bbFlow{a: a, b: n, bytes: bytes})
				}
				if bound := bb.g.Link(a, n).Bandwidth / acc; bound < bb.linkUB {
					bb.linkUB = bound
				}
			}
		}

		ub := bb.linkUB
		if bb.maxPC > 0 {
			if nodeUB := 1 / bb.maxPC; nodeUB < ub {
				ub = nodeUB
			}
		}
		// Prune only when the bound PROVABLY cannot strictly beat the
		// incumbent (the negated form keeps NaN bounds on the evaluate
		// path, where model.Best's semantics apply).
		if !(bb.found && ub <= bb.bestThr) {
			if d == lastDepth {
				sc.bbLeaf()
			} else {
				sc.bbRec(d + 1)
			}
		}

		// Pop.
		sc.busy[ni] = prevBusy
		bb.maxPC = prevMax
		bb.linkUB = prevLink
		if touched >= 0 {
			sc.flows[touched].bytes = touchedPrev
		} else if len(sc.flows) > flowsLen {
			sc.flows = sc.flows[:flowsLen]
		}
		if bb.err != nil {
			return
		}
	}
}

// bbLeaf rates the complete assignment with the full analytic model
// and keeps it if it strictly beats the incumbent — the same strict
// comparison model.Best applies, so ties break to the earlier
// candidate.
func (sc *Scratch) bbLeaf() {
	bb := &sc.bb
	p, err := model.PredictInto(bb.g, bb.spec, model.Mapping{Assign: sc.bbRows}, bb.loads, sc.ps)
	if err != nil {
		bb.err = err
		return
	}
	bb.evaluated++
	if bb.found && !(p.Throughput > bb.bestThr) {
		return
	}
	copy(sc.resBacking, sc.bbAssign)
	sc.busyKeep = p.CloneBusyInto(sc.busyKeep)
	bb.pred = p
	bb.bestThr = p.Throughput
	bb.found = true
}
