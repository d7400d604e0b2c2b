package exec

import (
	"fmt"
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sim"
)

// oneStageSpec is a single unit-work stage with no transfer costs.
func oneStageSpec() model.PipelineSpec {
	return model.PipelineSpec{
		Stages: []model.StageSpec{{Name: "s", Work: 1}},
	}
}

// TestShareSingleTenantIdentical pins the degenerate case: one
// executor attached to a NodeShares behaves exactly like one without —
// a lone tenant never exceeds the node's cores, so its share is always
// 1 and no rescale ever fires.
func TestShareSingleTenantIdentical(t *testing.T) {
	run := func(share bool) float64 {
		g, err := grid.Homogeneous(2, 1, grid.LANLink)
		if err != nil {
			t.Fatal(err)
		}
		eng := &sim.Engine{}
		opts := Options{MaxInFlight: 2}
		if share {
			opts.Share = NewNodeShares(g)
		}
		ex, err := New(eng, g, oneStageSpec(), model.FromNodes(0), opts)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := ex.RunItems(10)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	plain, shared := run(false), run(true)
	if plain != shared {
		t.Fatalf("single-tenant makespan diverged: plain=%v shared=%v", plain, shared)
	}
}

// TestShareTwoTenantsHalveCapacity pins the proportional-sharing
// model: two executors pushing one-stage unit-work items through the
// same 1-core node each progress at half speed, so both finish in
// twice the solo time.
func TestShareTwoTenantsHalveCapacity(t *testing.T) {
	g, err := grid.Homogeneous(1, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	sh := NewNodeShares(g)
	mk := func() *Executor {
		ex, err := New(eng, g, oneStageSpec(), model.FromNodes(0), Options{
			MaxInFlight: 1, TotalItems: 5, Share: sh,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	a, b := mk(), mk()
	a.Start()
	b.Start()
	for eng.Step() {
	}
	if a.Done() != 5 || b.Done() != 5 {
		t.Fatalf("done=%d/%d, want 5/5", a.Done(), b.Done())
	}
	// 10 unit-work items through one speed-1 core: exactly 10 seconds,
	// not 5 — the tenants shared, they did not each get a full node.
	if got := eng.Now(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("two tenants × 5 unit items on one core ended at t=%v, want 10", got)
	}
}

// TestShareRescaleBanksProgress pins the mid-service rescale: a task
// half-done at full speed when a second tenant arrives finishes the
// remaining half at half speed.
func TestShareRescaleBanksProgress(t *testing.T) {
	g, err := grid.Homogeneous(1, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	sh := NewNodeShares(g)
	a, err := New(eng, g, oneStageSpec(), model.FromNodes(0), Options{
		MaxInFlight: 1, TotalItems: 1, Share: sh,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(eng, g, oneStageSpec(), model.FromNodes(0), Options{
		MaxInFlight: 1, TotalItems: 1, Share: sh,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start() // a's item starts service at t=0 under share 1
	eng.RunUntil(0.5)
	b.Start() // b arrives mid-service: both drop to share 1/2
	for eng.Step() {
	}
	// a: 0.5 work banked by t=0.5, 0.5 left at half speed → t=1.5.
	// b: 1.0 work at half speed from 0.5 → rescaled to full speed when
	// a leaves at 1.5 (0.5 work left) → t=2.0.
	lats := a.Latencies()
	if len(lats) != 1 || math.Abs(lats[0]-1.5) > 1e-9 {
		t.Fatalf("tenant a latency %v, want 1.5 (half the work at half speed)", lats)
	}
	if got := eng.Now(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("run ended at t=%v, want 2.0", got)
	}
}

// TestLiveTenantsTrackInService pins the ledger's live-tenant lists:
// after every event, node n's list holds exactly the executors with a
// task in service on n, in attach order. rescale walks only that list,
// and a tenant joins it on its first in-service task and leaves on its
// last, so a rescale never visits an executor with nothing in service
// on the node. Tenants overlap on multi-core nodes, start out of
// attach order, and one is remapped kill-restart mid-run; at the end
// every list is empty.
func TestLiveTenantsTrackInService(t *testing.T) {
	var nodes []*grid.Node
	for i, cores := range []int{2, 1, 2, 3} {
		nodes = append(nodes, &grid.Node{Name: fmt.Sprintf("n%d", i), Speed: 1 + 0.25*float64(i), Cores: cores})
	}
	g, err := grid.NewGrid(grid.LANLink, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	sh := NewNodeShares(g)
	spec := model.Balanced(3, 0.4, 1e4)
	maps := []model.Mapping{
		{Assign: [][]grid.NodeID{{0}, {1, 2}, {3}}},
		{Assign: [][]grid.NodeID{{3}, {0}, {2}}},
		{Assign: [][]grid.NodeID{{2, 3}, {0, 1}, {0}}},
		{Assign: [][]grid.NodeID{{1}, {3}, {2, 0}}},
	}
	var execs []*Executor
	for i, m := range maps {
		ex, err := New(eng, g, spec, m, Options{
			MaxInFlight: 6,
			TotalItems:  40,
			Share:       sh,
			WorkSampler: func(stage, seq int) float64 { return 0.2 + 0.05*float64((stage*7+seq*3+i)%5) },
		})
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, ex)
	}
	for k, i := range []int{2, 0, 3, 1} {
		eng.Schedule(0.3*float64(k), execs[i].Start)
	}
	eng.Schedule(3, func() {
		if _, err := execs[1].Remap(maps[3], KillRestart); err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	check := func() {
		for n := 0; n < g.NumNodes(); n++ {
			var want []*Executor
			total := 0
			for _, e := range execs {
				if k := len(e.nodes[n].inService); k > 0 {
					want = append(want, e)
					total += k
				}
			}
			got := sh.live[n]
			if len(got) != len(want) {
				t.Fatalf("t=%v node %d: %d live tenants, %d executors in service", eng.Now(), n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("t=%v node %d: live tenant %d is attach #%d, want #%d", eng.Now(), n, i, got[i].shareSeq, want[i].shareSeq)
				}
			}
			if sh.count[n] != total {
				t.Fatalf("t=%v node %d: ledger counts %d in service, executors hold %d", eng.Now(), n, sh.count[n], total)
			}
		}
	}
	maxLive := 0
	for eng.Step() {
		check()
		for n := 0; n < g.NumNodes(); n++ {
			maxLive = max(maxLive, sh.LiveTenants(grid.NodeID(n)))
		}
	}
	for i, e := range execs {
		if e.Done() != 40 {
			t.Fatalf("executor %d done %d, want 40", i, e.Done())
		}
	}
	if maxLive < 3 {
		t.Fatalf("fixture lost its coverage: at most %d tenants ever shared a node", maxLive)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if k := sh.LiveTenants(grid.NodeID(n)); k != 0 {
			t.Fatalf("node %d lists %d live tenants after the run", n, k)
		}
	}
}
