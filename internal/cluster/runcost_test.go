package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/workload"
)

// stepRun runs c to completion like Run, calling check before the first
// event and after every one.
func stepRun(t *testing.T, c *Cluster, check func()) Report {
	t.Helper()
	if err := c.start(); err != nil {
		t.Fatal(err)
	}
	check()
	for c.unsettled > 0 {
		if !c.eng.Step() {
			t.Fatal("calendar empty with jobs outstanding")
		}
		check()
	}
	if c.ctrl != nil {
		c.ctrl.Stop()
	}
	return c.report()
}

// checkIndexes compares the cluster's incremental bookkeeping with a
// full scan of every submitted job: the unsettled counter, the running
// index (job-ID order), and each running job's tracked mapping against
// its executor's.
func checkIndexes(t *testing.T, c *Cluster) {
	t.Helper()
	unsettled := 0
	var running []*Job
	for _, j := range c.jobs {
		switch j.state {
		case JobDone, JobRejected:
		default:
			unsettled++
		}
		if j.state == JobRunning {
			running = append(running, j)
		}
	}
	if c.unsettled != unsettled {
		t.Fatalf("t=%v: unsettled counter %d, scan %d", c.eng.Now(), c.unsettled, unsettled)
	}
	if len(c.running) != len(running) {
		t.Fatalf("t=%v: running index holds %d jobs, scan %d", c.eng.Now(), len(c.running), len(running))
	}
	for i, j := range running {
		if c.running[i] != j {
			t.Fatalf("t=%v: running index[%d] = job %d, scan job %d", c.eng.Now(), i, c.running[i].id, j.id)
		}
		if j.ex != nil && !j.mapping.Equal(j.ex.Mapping()) {
			t.Fatalf("t=%v: job %d tracks mapping %v, executor runs %v", c.eng.Now(), j.id, j.mapping, j.ex.Mapping())
		}
	}
}

// TestSettledCounterMatchesScan checks the unsettled counter and the
// running index against a full scan at every engine step, on small
// random traces under each admission mode and a reactive policy. The
// "reversed" traces submit jobs against arrival order, so admission
// order is the reverse of the job-ID order the index must keep.
func TestSettledCounterMatchesScan(t *testing.T) {
	mix := []workload.MixEntry{
		{App: "image", Share: 1, Items: 6, Floor: 1},
		{App: "genome", Share: 1, Items: 8, Weight: 2, Floor: 2},
		{App: "video", Share: 1, Items: 5, Floor: 3},
	}
	modes := []struct {
		name string
		adm  Admission
	}{{"queue", AdmitQueue}, {"reject", AdmitReject}, {"all", AdmitAll}}
	for _, m := range modes {
		for _, reversed := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/reversed=%v/seed%d", m.name, reversed, seed), func(t *testing.T) {
					tr, err := workload.GenerateTrace(workload.NewPoisson(0.4, seed), mix, 60, seed)
					if err != nil {
						t.Fatal(err)
					}
					specs, err := tr.JobSpecs()
					if err != nil {
						t.Fatal(err)
					}
					if reversed {
						for i, k := 0, len(specs)-1; i < k; i, k = i+1, k-1 {
							specs[i].Arrival, specs[k].Arrival = specs[k].Arrival, specs[i].Arrival
						}
					}
					c, err := New(homGrid(t, 5), Config{Seed: seed, Admission: m.adm, Policy: adaptive.PolicyReactive})
					if err != nil {
						t.Fatal(err)
					}
					for _, spec := range specs {
						if _, err := c.Submit(spec); err != nil {
							t.Fatal(err)
						}
					}
					rep := stepRun(t, c, func() { checkIndexes(t, c) })
					rejected := 0
					for _, jr := range rep.Jobs {
						if jr.State == JobRejected {
							rejected++
						}
					}
					if m.adm == AdmitReject && rejected == 0 {
						t.Fatal("fixture lost its coverage: no job was rejected")
					}
				})
			}
		}
	}
}

// TestLiveTenantsReleasedAfterRun checks what a run leaves behind:
// every node's live-tenant list is empty, and every finished job has
// dropped its executor — which nothing else in the cluster references,
// so the garbage collector reclaims it while the cluster lives on.
func TestLiveTenantsReleasedAfterRun(t *testing.T) {
	c := goldenCluster(t, 7, 120)
	execs := map[int]weak.Pointer[exec.Executor]{}
	stepRun(t, c, func() {
		for _, j := range c.running {
			if _, ok := execs[j.id]; !ok && j.ex != nil {
				execs[j.id] = weak.Make(j.ex)
			}
		}
	})
	for n := 0; n < c.g.NumNodes(); n++ {
		if k := c.shares.LiveTenants(grid.NodeID(n)); k != 0 {
			t.Errorf("node %d still lists %d live tenants", n, k)
		}
	}
	for _, j := range c.jobs {
		if j.state == JobDone && j.ex != nil {
			t.Errorf("finished job %d still holds its executor", j.id)
		}
	}
	if len(execs) == 0 {
		t.Fatal("no executor observed")
	}
	// The cluster stays live across the collection: an executor it
	// still references anywhere (jobs, ledger, engine) stays reachable.
	runtime.GC()
	for id, p := range execs {
		if p.Value() != nil {
			t.Errorf("job %d's executor is still reachable from the cluster after the run", id)
		}
	}
	runtime.KeepAlive(c)
}

// BenchmarkClusterRunJobs times whole cluster runs of the report
// golden's fixture at two job counts and reports ns/job: equal ns/job
// at both sizes means a run's cost is linear in its job count. Set-up
// (trace generation, grid, submission) is excluded.
func BenchmarkClusterRunJobs(b *testing.B) {
	for _, jobs := range []int{400, 1600} {
		b.Run(fmt.Sprint(jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := goldenCluster(b, 42, jobs)
				b.StartTimer()
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
		})
	}
}
