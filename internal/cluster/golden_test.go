package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/rng"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

// goldenSites is the fixture grid of the report golden: three sites of
// mixed speed and core count, with bursty background load on some
// nodes, so tenants share multi-core nodes and contend for them.
var goldenSites = []struct {
	speed  float64
	cores  int
	loaded []bool
}{
	{speed: 1.0, cores: 2, loaded: []bool{false, true, true}},
	{speed: 0.7, cores: 1, loaded: []bool{true, false}},
	{speed: 1.6, cores: 2, loaded: []bool{false, true}},
}

// goldenMix is the fixture's job mix: the bundled apps with the
// weights and floors of a shared grid's tenants.
var goldenMix = []workload.MixEntry{
	{App: "image", Share: 0.4, Items: 20, Weight: 1, Floor: 1},
	{App: "genome", Share: 0.4, Items: 24, Weight: 2, Floor: 2},
	{App: "video", Share: 0.2, Items: 16, Weight: 1, Floor: 2},
}

// goldenRate is the fixture's mean job arrival rate per virtual second.
const goldenRate = 0.5

// goldenGrid builds the fixture grid: LAN links inside a site, campus
// links between sites, a seeded Markov on/off load over the horizon on
// every loaded node.
func goldenGrid(t testing.TB, seed uint64, horizon float64) *grid.Grid {
	t.Helper()
	r := rng.New(seed)
	var nodes []*grid.Node
	var siteOf []int
	for si, s := range goldenSites {
		for _, loaded := range s.loaded {
			n := &grid.Node{Name: fmt.Sprintf("n%d", len(nodes)), Speed: s.speed, Cores: s.cores}
			if loaded {
				n.Load = trace.NewMarkovBurst(r.Derive(uint64(len(nodes))), horizon, 1, 0.1, 0.6, 20, 10)
			}
			nodes = append(nodes, n)
			siteOf = append(siteOf, si)
		}
	}
	g, err := grid.NewGrid(grid.CampusLink, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if siteOf[i] == siteOf[j] {
				if err := g.SetLink(grid.NodeID(i), grid.NodeID(j), grid.LANLink); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// goldenCluster builds a reactive, queued-admission cluster over the
// fixture grid and submits a bursty stream of jobs mixing the bundled
// apps, cut at the given job count.
func goldenCluster(t testing.TB, seed uint64, jobs int) *Cluster {
	t.Helper()
	horizon := 3 * float64(jobs) / goldenRate
	tr, err := workload.GenerateTrace(workload.NewBursty(0.75*goldenRate, 1.5*goldenRate, 8, 4, seed), goldenMix, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) < jobs {
		t.Fatalf("trace has %d jobs, want %d", len(tr), jobs)
	}
	c, err := New(goldenGrid(t, seed, horizon), Config{
		Policy:    adaptive.PolicyReactive,
		Admission: AdmitQueue,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitTrace(tr[:jobs]); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterReportGolden pins the complete Report of a multi-tenant
// run: tenants sharing loaded multi-core nodes (thousands of
// cross-tenant rescales), queued admission, reactive re-arbitration,
// and each finished job's mean latency and final mapping. The digest
// was recorded before the live-tenant ledger and the executor release
// at finalize; a change to either that moves one event shows up here.
func TestClusterReportGolden(t *testing.T) {
	const goldenDigest = "27cfb8e0a6ac9aec"

	c := goldenCluster(t, 42, 300)
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Remaps == 0 {
		t.Fatal("fixture lost its coverage: the controller never remapped")
	}
	queued := 0
	for _, jr := range rep.Jobs {
		if jr.Waited > 0 {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("fixture lost its coverage: no job ever waited for admission")
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", rep)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenDigest {
		t.Fatalf("report digest = %s, want %s (remaps=%d queued=%d makespan=%v)", got, goldenDigest, rep.Remaps, queued, rep.Makespan)
	}
}
