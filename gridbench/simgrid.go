package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/cluster"
	"gridpipe/internal/grid"
	"gridpipe/internal/rng"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

// sim_grid: a seeded bursty stream of jobs mixing the bundled image,
// genome and video apps runs through cluster.SubmitTrace + Run on a
// heterogeneous three-site grid whose nodes carry bursty background
// load, under reactive arbitration with an admission queue. The job
// count is fixed because the simulator's wall time grows faster than
// linearly in it.
const (
	sgJobs    = 1700
	sgRate    = 0.6   // mean job arrivals per virtual second
	sgHorizon = 6000. // virtual seconds covered by the load traces
	sgLimit   = 8.    // job latency limit, virtual seconds from arrival
	// sgStreams is how many independent job streams (and load traces) a
	// run derives from its seed. Their jobs are pooled, so one unlucky
	// burst moves the tail less. The streams are run in turn until the
	// time is up, each at least once and the first at least twice.
	sgStreams = 6
)

var sgMix = []workload.MixEntry{
	{App: "image", Share: 0.4, Items: 20, Weight: 1, Floor: 1},
	{App: "genome", Share: 0.4, Items: 24, Weight: 2, Floor: 2},
	{App: "video", Share: 0.2, Items: 16, Weight: 1, Floor: 2},
}

// simSite is one site of the grid: its nodes and, per node, whether
// bursty background load sits on it.
type simSite struct {
	name   string
	speed  float64
	cores  int
	loaded []bool
}

var sgSites = []simSite{
	{name: "alpha", speed: 1.0, cores: 2, loaded: []bool{false, false, true, true}},
	{name: "beta", speed: 0.7, cores: 1, loaded: []bool{true, true, true, false}},
	{name: "gamma", speed: 1.6, cores: 2, loaded: []bool{false, true, false}},
}

// simGridOf builds the grid: LAN links inside a site, campus links
// between sites, and a seeded Markov on/off load trace on every loaded
// node.
func simGridOf(seed uint64) (*grid.Grid, error) {
	r := rng.New(seed)
	var nodes []*grid.Node
	var siteOf []int
	for si, s := range sgSites {
		for i, loaded := range s.loaded {
			n := &grid.Node{Name: fmt.Sprintf("%s-%d", s.name, i), Speed: s.speed, Cores: s.cores}
			if loaded {
				n.Load = trace.NewMarkovBurst(r.Derive(uint64(len(nodes))), sgHorizon, 1, 0.1, 0.6, 20, 10)
			}
			nodes = append(nodes, n)
			siteOf = append(siteOf, si)
		}
	}
	g, err := grid.NewGrid(grid.CampusLink, nodes...)
	if err != nil {
		return nil, err
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if siteOf[i] == siteOf[j] {
				if err := g.SetLink(grid.NodeID(i), grid.NodeID(j), grid.LANLink); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// simTrace generates exactly sgJobs arrivals: a bursty stream from the
// workload layer, cut at the job count.
func simTrace(seed uint64) (workload.Trace, error) {
	proc := workload.NewBursty(0.75*sgRate, 1.5*sgRate, 8, 4, seed)
	horizon := 3 * sgJobs / sgRate
	tr, err := workload.GenerateTrace(proc, sgMix, horizon, seed)
	if err != nil {
		return nil, err
	}
	if len(tr) < sgJobs {
		return nil, fmt.Errorf("trace has %d jobs, want %d", len(tr), sgJobs)
	}
	return tr[:sgJobs], nil
}

// appWork is each app's serial work per item: the sum of its stage
// demands in reference-seconds.
func appWork() (map[string]float64, error) {
	w := map[string]float64{}
	for _, m := range sgMix {
		app, err := workload.ByName(m.App)
		if err != nil {
			return nil, err
		}
		for _, st := range app.Spec.Stages {
			w[m.App] += st.Work
		}
	}
	return w, nil
}

func simGrid(ctx context.Context, ph phase) (*outcome, error) {
	o := newOutcome()
	work, err := appWork()
	if err != nil {
		return nil, err
	}
	var (
		setups, genTimes, runTimes []float64
		mallocs                    uint64
		simItems                   int64
		// per stream: wall and CPU seconds of each of its runs, and the
		// items one run completes
		streamWall, streamCPU = make([][]float64, sgStreams), make([][]float64, sgStreams)
		streamDone            = make([]int64, sgStreams)
		divider               cluster.DividerStats
		// per stream: the first run's report and digest, and its trace
		firsts  = make([]cluster.Report, sgStreams)
		digests = make([]uint64, sgStreams)
		traces  = make([]workload.Trace, sgStreams)
	)
	heap := startHeap()
	until := time.Now().Add(time.Duration(ph.seconds * float64(time.Second)))
	for run := 0; run <= sgStreams || time.Now().Before(until); run++ {
		if ctx.Err() != nil {
			break
		}
		k := run % sgStreams
		seed := rng.SeedFor(ph.seed, uint64(k))
		repSpan := ph.tr.begin("sim_grid.run", 0)
		root := repSpan.id()
		t0 := time.Now()
		var tr workload.Trace
		var g *grid.Grid
		var cl *cluster.Cluster
		var err error
		ph.tr.call("workload.GenerateTrace", root, func() { tr, err = simTrace(seed) })
		genTimes = append(genTimes, time.Since(t0).Seconds())
		if err == nil {
			ph.tr.call("grid.NewGrid", root, func() { g, err = simGridOf(seed) })
		}
		if err == nil {
			ph.tr.call("cluster.New", root, func() {
				cl, err = cluster.New(g, cluster.Config{
					Policy:    adaptive.PolicyReactive,
					Admission: cluster.AdmitQueue,
					Seed:      seed,
				})
			})
		}
		if err == nil {
			ph.tr.call("cluster.SubmitTrace", root, func() { _, err = cl.SubmitTrace(tr) })
		}
		if err != nil {
			return nil, fmt.Errorf("sim_grid set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		var rpt cluster.Report
		sec := beginSection()
		ph.tr.call("cluster.Run", root, func() { rpt, err = cl.Run() })
		u := sec.end()
		if err != nil {
			return nil, fmt.Errorf("sim_grid run: %w", err)
		}
		mallocs += u.mallocs
		runTimes = append(runTimes, u.wall.Seconds())
		streamWall[k] = append(streamWall[k], u.wall.Seconds())
		streamCPU[k] = append(streamCPU[k], u.cpu.Seconds())
		if run < sgStreams {
			divider = addDivider(divider, cl.DividerStats())
		}
		repSpan.end()

		// Conservation: every submitted item is done, lost, or belongs
		// to a rejected job. Identity: every run of one stream yields
		// the same report.
		submitted, done := checkConservation(o, tr, rpt)
		o.attempted += submitted
		simItems += done
		streamDone[k] = done
		digest := reportDigest(rpt)
		if run < sgStreams {
			firsts[k], digests[k], traces[k] = rpt, digest, tr
		} else if digest != digests[k] {
			o.fail(submitted, "run %d: stream %d's report digest %016x differs from its first run's %016x", run, k, digest, digests[k])
		}
	}
	peak := heap.stop()

	var sojourn, waits []float64
	good, total := 0, 0
	serial, makespan := 0.0, 0.0
	var arbitrations, remaps int
	for k, first := range firsts {
		for j, jr := range first.Jobs {
			ev := traces[k][j]
			total += ev.Items
			waits = append(waits, jr.Waited)
			if jr.State != cluster.JobDone {
				continue
			}
			d := jr.Finished - jr.Arrival
			sojourn = append(sojourn, d*1e6)
			if d <= sgLimit {
				good += jr.Done
			}
			serial += float64(jr.Done) * work[ev.App]
		}
		makespan += first.Makespan
		arbitrations += first.Arbitrations
		remaps += first.Remaps
		o.note("stream %d: virt_makespan_s = %.9g s, report digest %016x", k, first.Makespan, digests[k])
	}
	p90, p99 := quantile(sojourn, 0.90), quantile(sojourn, 0.99)
	// Wall and CPU time per item: each stream's median run, summed over
	// the streams, so how many runs of which stream fit in the time
	// does not move them.
	var wall, cpu float64
	var items int64
	for k := range streamWall {
		wall += median(streamWall[k])
		cpu += median(streamCPU[k])
		items += streamDone[k]
	}
	o.e2e["items_per_s"] = float64(items) / wall
	o.e2e["setup_s"] = median(setups)
	o.e2e["latency_p50_us"] = quantile(sojourn, 0.5)
	o.e2e["latency_p90_us"] = p90
	o.e2e["goodput_frac"] = float64(good) / float64(total)
	o.e2e["speedup_vs_serial"] = serial / makespan
	o.e2e["cpu_us_per_item"] = cpu * 1e6 / float64(items)
	o.setMemory(mallocs, peak, simItems)
	o.note("%d runs over %d streams of %d jobs (%d items) on %d nodes; latencies are virtual job sojourns over %d done jobs, limit %gs",
		len(runTimes), sgStreams, sgJobs, total, nodeCount(), len(sojourn), sgLimit)
	o.note("virt_makespan_s = %.9g s (summed over streams), virt_job_p99_s = %.9g s (latency_p99_us, not gated)", makespan, p99/1e6)
	o.note("speedup_vs_serial: serial work on one unloaded speed-1 node over the virtual makespan")

	o.layer["cluster.run_s"] = median(runTimes)
	o.layer["cluster.arbitrations"] = float64(arbitrations)
	o.layer["cluster.remaps"] = float64(remaps)
	o.layer["cluster.divider_searches"] = float64(divider.Searches)
	if n := divider.Searches + divider.Cached; n > 0 {
		o.layer["cluster.divider_cache_hit_frac"] = float64(divider.Cached) / float64(n)
	}
	o.layer["cluster.queue_wait_p99_s"] = quantile(waits, 0.99)
	o.layer["workload.trace_gen_s"] = median(genTimes)
	return o, nil
}

func addDivider(a, b cluster.DividerStats) cluster.DividerStats {
	return cluster.DividerStats{Rounds: a.Rounds + b.Rounds, Searches: a.Searches + b.Searches, Cached: a.Cached + b.Cached}
}

func nodeCount() int {
	n := 0
	for _, s := range sgSites {
		n += len(s.loaded)
	}
	return n
}

// checkConservation counts the items of one run that are neither done,
// lost, nor part of a rejected job, and returns the submitted and done
// item counts.
func checkConservation(o *outcome, tr workload.Trace, rpt cluster.Report) (submitted, done int64) {
	if len(rpt.Jobs) != len(tr) {
		o.fail(int64(tr.TotalItems()), "report has %d jobs, %d were submitted", len(rpt.Jobs), len(tr))
		return int64(tr.TotalItems()), 0
	}
	for j, jr := range rpt.Jobs {
		items := tr[j].Items
		submitted += int64(items)
		done += int64(jr.Done)
		accounted := jr.Done + jr.Lost
		if jr.State == cluster.JobRejected {
			accounted += items
		}
		if accounted != items {
			o.fail(int64(abs(items-accounted)), "job %s: %d items submitted, %d done, %d lost, state %v",
				jr.Name, items, jr.Done, jr.Lost, jr.State)
		}
	}
	return submitted, done
}

// reportDigest hashes every field of a report; %v prints each float in
// the shortest form that reads back to the same bits.
func reportDigest(r cluster.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", r)
	return h.Sum64()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
