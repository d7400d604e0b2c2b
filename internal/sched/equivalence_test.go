package sched

// Equivalence property: the branch-and-bound Exhaustive search —
// through a caller-held scratch (SearchWith) and through the pooled
// classic API (SearchAvail) — must return EXACTLY the candidate that
// materializing the space (every model.VisitMappings candidate, cloned
// into a slice) and rating it with model.Best selects: same mapping, bit-identical prediction. Pruning
// is a work optimisation, never a result change; this test is the
// fence that keeps it that way, across randomized grids × specs ×
// load vectors × availability masks, chain and DAG topologies.

import (
	"fmt"
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/topo"
)

// equivCase is one randomized topology shape of the sweep.
type equivCase struct {
	name string
	ns   int // stages (chain cases)
	np   int // nodes
	dag  bool
	mask bool // draw a random availability mask
}

func equivCases() []equivCase {
	return []equivCase{
		{name: "chain-4x4", ns: 4, np: 4},
		{name: "chain-6x3", ns: 6, np: 3},
		{name: "chain-3x5-masked", ns: 3, np: 5, mask: true},
		{name: "diamond-dag", np: 4, dag: true},
		{name: "diamond-dag-masked", np: 5, dag: true, mask: true},
	}
}

// buildEquiv draws one randomized (grid, spec, loads, avail) instance.
func buildEquiv(r *rng.Rand, c equivCase) (*grid.Grid, model.PipelineSpec, []float64, []bool, error) {
	speeds := make([]float64, c.np)
	for i := range speeds {
		speeds[i] = 0.5 + 3*r.Float64()
	}
	g, err := grid.Heterogeneous(speeds, grid.CampusLink)
	if err != nil {
		return nil, model.PipelineSpec{}, nil, nil, err
	}
	stage := func(name string) topo.Stage {
		return topo.Stage{Name: name, Work: 0.05 + 0.3*r.Float64(), OutBytes: 1e4 + 2e5*r.Float64()}
	}
	var spec model.PipelineSpec
	if c.dag {
		// Fan-out/fan-in: head → 2 branches → tail (the F8 shape).
		dg, err := topo.Diamond(stage("head"), []topo.Stage{stage("b0"), stage("b1")}, stage("tail"))
		if err != nil {
			return nil, model.PipelineSpec{}, nil, nil, err
		}
		spec, err = model.FromGraph(dg, 1e5)
		if err != nil {
			return nil, model.PipelineSpec{}, nil, nil, err
		}
	} else {
		stages := make([]model.StageSpec, c.ns)
		for i := range stages {
			s := stage(fmt.Sprintf("s%d", i))
			stages[i] = model.StageSpec{Name: s.Name, Work: s.Work, OutBytes: s.OutBytes}
		}
		spec = model.PipelineSpec{Stages: stages, InBytes: 1e5}
	}
	var loads []float64
	if r.Float64() < 0.7 { // sometimes nil: the idle-grid case
		loads = make([]float64, c.np)
		for i := range loads {
			if r.Float64() < 0.6 {
				loads[i] = r.Float64()
			}
		}
	}
	var avail []bool
	if c.mask {
		avail = make([]bool, c.np)
		kept := 0
		for i := range avail {
			if r.Float64() < 0.7 {
				avail[i] = true
				kept++
			}
		}
		if kept == 0 {
			avail[r.Intn(c.np)] = true
		}
	}
	return g, spec, loads, avail, nil
}

// refSearch is the ground truth: materialize every candidate over the
// admitted nodes and rate them all with model.Best.
func refSearch(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	var ids []grid.NodeID
	for n := 0; n < g.NumNodes(); n++ {
		if avail == nil || avail[n] {
			ids = append(ids, grid.NodeID(n))
		}
	}
	var mappings []model.Mapping
	err := model.VisitMappings(spec.NumStages(), ids, func(m model.Mapping) bool {
		mappings = append(mappings, m.Clone())
		return true
	})
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	idx, pred, err := model.Best(g, spec, mappings, loads)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	return mappings[idx], pred, nil
}

// samePrediction requires bit-identical predictions (NaN-aware: the
// sweep never produces NaN, but a drifting implementation might).
func samePrediction(t *testing.T, label string, got, want model.Prediction) {
	t.Helper()
	if got.Throughput != want.Throughput {
		t.Errorf("%s: throughput %v, want %v", label, got.Throughput, want.Throughput)
	}
	if got.BottleneckNode != want.BottleneckNode {
		t.Errorf("%s: bottleneck %d, want %d", label, got.BottleneckNode, want.BottleneckNode)
	}
	if got.LinkBound != want.LinkBound && !(math.IsInf(got.LinkBound, 1) && math.IsInf(want.LinkBound, 1)) {
		t.Errorf("%s: link bound %v, want %v", label, got.LinkBound, want.LinkBound)
	}
	if len(got.NodeBusy) != len(want.NodeBusy) {
		t.Fatalf("%s: NodeBusy length %d, want %d", label, len(got.NodeBusy), len(want.NodeBusy))
	}
	for n := range want.NodeBusy {
		if got.NodeBusy[n] != want.NodeBusy[n] {
			t.Errorf("%s: NodeBusy[%d] = %v, want %v", label, n, got.NodeBusy[n], want.NodeBusy[n])
		}
	}
}

func TestExhaustiveEquivalence(t *testing.T) {
	sc := NewScratch() // one scratch across every case: stresses reuse
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		for _, c := range equivCases() {
			label := fmt.Sprintf("seed%d/%s", seed, c.name)
			g, spec, loads, avail, err := buildEquiv(r, c)
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}
			wantM, wantP, err := refSearch(g, spec, loads, avail)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}

			gotM, gotP, err := SearchWith(sc, Exhaustive{}, g, spec, loads, avail)
			if err != nil {
				t.Fatalf("%s: SearchWith: %v", label, err)
			}
			if !gotM.Equal(wantM) {
				t.Errorf("%s: SearchWith mapping %s, want %s", label, gotM, wantM)
			}
			samePrediction(t, label+"/scratch", gotP, wantP)

			pm, pp, err := Exhaustive{}.SearchAvail(g, spec, loads, avail)
			if err != nil {
				t.Fatalf("%s: SearchAvail: %v", label, err)
			}
			if !pm.Equal(wantM) {
				t.Errorf("%s: SearchAvail mapping %s, want %s", label, pm, wantM)
			}
			samePrediction(t, label+"/pooled", pp, wantP)
		}
	}
}

// TestExhaustiveCountersPrune pins the pruning telemetry: on a space
// large enough to bound, the walk must evaluate at least 5× fewer
// candidates than the full enumeration — the PR's acceptance floor.
func TestExhaustiveCountersPrune(t *testing.T) {
	r := rng.New(42)
	g, spec, loads, _, err := buildEquiv(r, equivCase{name: "chain-8x4", ns: 8, np: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ctr SearchCounters
	if _, _, err := SearchAvailable(Exhaustive{Counters: &ctr}, g, spec, loads, nil); err != nil {
		t.Fatal(err)
	}
	if ctr.Candidates != 65536 {
		t.Fatalf("candidates = %d, want 4^8", ctr.Candidates)
	}
	if ctr.Evaluated == 0 || ctr.PruneRatio() < 5 {
		t.Fatalf("prune ratio %.1f (evaluated %d of %d), want >= 5x",
			ctr.PruneRatio(), ctr.Evaluated, ctr.Candidates)
	}
}
