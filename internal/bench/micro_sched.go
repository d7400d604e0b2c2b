package bench

// Scheduler hot-path micro-benchmarks (PR 7): the pruned exhaustive
// search through a persistent sched.Scratch, and the incremental
// cluster arbitration round through a warm cluster.Divider memo. Both
// run under the -maxallocs 0 gate: a steady-state search or division
// round performs zero allocations.

import (
	"fmt"
	"testing"

	"gridpipe/internal/cluster"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
)

// schedBenchConfig builds the T4 validation configuration the search
// and arbitration benchmarks share: ns random-work stages
// (0.05 + 0.3·U) moving 100 kB items over a 4-node heterogeneous
// campus grid (speeds 0.5 + 3·U), seed-fixed.
func schedBenchConfig(seed uint64, ns, np int) (*grid.Grid, model.PipelineSpec, error) {
	r := rng.New(seed)
	stages := make([]model.StageSpec, ns)
	for i := range stages {
		stages[i] = model.StageSpec{
			Name: fmt.Sprintf("s%d", i), Work: 0.05 + 0.3*r.Float64(),
			OutBytes: 1e5, Replicable: false,
		}
	}
	spec := model.PipelineSpec{Stages: stages, InBytes: 1e5}
	speeds := make([]float64, np)
	for i := range speeds {
		speeds[i] = 0.5 + 3*r.Float64()
	}
	g, err := grid.Heterogeneous(speeds, grid.CampusLink)
	if err != nil {
		return nil, model.PipelineSpec{}, err
	}
	return g, spec, nil
}

// benchSchedSearch runs the branch-and-bound exhaustive search over
// the T4 8-stage × 4-node configuration through one persistent
// scratch: the scheduler's hottest path, 0 allocs/op once warm.
func benchSchedSearch(b *testing.B) {
	g, spec, err := schedBenchConfig(42, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	var ctr sched.SearchCounters
	var s sched.Searcher = sched.Exhaustive{Counters: &ctr}
	sc := sched.NewScratch()
	// Warm-up: first search grows the scratch buffers.
	if _, _, err := sched.SearchWith(sc, s, g, spec, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.SearchWith(sc, s, g, spec, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ctr.Evaluated > 0 {
		// Candidates rated per second and the share the bound pruned:
		// the search's two cost axes.
		b.ReportMetric(float64(ctr.Evaluated)/b.Elapsed().Seconds(), "items/s")
		b.ReportMetric(ctr.PruneRatio(), "prune-ratio")
	}
}

// benchClusterArbitrate runs a steady-state incremental arbitration
// round: three tenants whose leases, loads and upstream reservations
// are unchanged, so every per-tenant search replays from the memo —
// the cluster's per-tick cost when nothing moved, 0 allocs/op.
func benchClusterArbitrate(b *testing.B) {
	g, spec, err := schedBenchConfig(42, 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	d := cluster.NewDivider(g, 0)
	tenants := make([]cluster.DividerTenant, 3)
	for i := range tenants {
		tenants[i] = cluster.DividerTenant{
			ID:       i,
			Name:     fmt.Sprintf("job%d", i),
			Tenant:   cluster.Tenant{Weight: 1, Floor: 1},
			Spec:     spec,
			Searcher: sched.LocalSearch{Seed: rng.SeedFor(42, uint64(i))},
		}
	}
	out := make([]cluster.Placement, len(tenants))
	// Warm-up round populates the memo; steady rounds replay it.
	if err := d.Round(nil, tenants, nil, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Round(nil, tenants, nil, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(tenants))/b.Elapsed().Seconds(), "items/s")
	st := d.Stats()
	if st.Searches > len(tenants) {
		b.Fatalf("steady-state rounds re-searched: %d searches for %d tenants", st.Searches, len(tenants))
	}
}
