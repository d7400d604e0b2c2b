package bench

import (
	"fmt"
	"math"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/forecast"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
	"gridpipe/internal/stats"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

func init() {
	register(Experiment{ID: "T1", Title: "Adaptation overhead breakdown", Run: runT1})
	register(Experiment{ID: "T2", Title: "Analytic model vs simulation: mapping choice and throughput error", Run: runT2})
	register(Experiment{ID: "T3", Title: "Forecaster accuracy by trace class", Run: runT3})
	register(Experiment{ID: "T4", Title: "Mapping-search strategies: quality and cost", Run: runT4})
}

// T1: instrument the F1 spike scenario under the reactive policy and
// break the cost of adaptation down: detection latency, migrations,
// redone work, and the throughput dip.
func runT1(seed uint64) (*Result, error) {
	const (
		horizon = 180.0
		spikeAt = 60.0
		level   = 0.85
		window  = 5.0
	)
	app := workload.Image()
	idle, err := spikeGrid(6, -1, 0, 0)
	if err != nil {
		return nil, err
	}
	m0, err := initialMapping(idle, app, seed)
	if err != nil {
		return nil, err
	}
	victim := int(m0.Assign[1][0])

	res := &Result{ID: "T1", Title: "adaptation overhead"}
	tb := stats.NewTable("T1 overhead of adaptation (reactive policy, spike at t=60)",
		"metric", "value")
	g, err := spikeGrid(6, victim, spikeAt, level)
	if err != nil {
		return nil, err
	}
	out, err := run(runConfig{Grid: g, App: app, Initial: m0,
		Policy: adaptive.PolicyReactive, Interval: 1, Seed: seed, Duration: horizon})
	if err != nil {
		return nil, err
	}
	st := out.Ctrl
	detection := math.NaN()
	for _, ev := range st.Events {
		if ev.Time >= spikeAt {
			detection = ev.Time - spikeAt
			break
		}
	}
	// Recovery: first window after the spike whose rate reaches 90% of
	// the final steady rate.
	completions := out.Exec.Monitor().Completions()
	steady := meanRateIn(completions, horizon-30, horizon)
	recovery := math.NaN()
	for t := spikeAt; t < horizon-window; t += 1 {
		if meanRateIn(completions, t, t+window) >= 0.9*steady {
			recovery = t - spikeAt
			break
		}
	}
	preRate := meanRateIn(completions, 0, spikeAt)
	tb.AddRowf("items completed", out.Done)
	tb.AddRowf("remaps", st.Remaps)
	tb.AddRowf("searches", st.Searches)
	tb.AddRowf("detection latency (s)", detection)
	tb.AddRowf("recovery time to 90% steady (s)", recovery)
	tb.AddRowf("items migrated", out.Exec.Migrations())
	tb.AddRowf("migrated as % of done", 100*float64(out.Exec.Migrations())/float64(out.Done))
	tb.AddRowf("redone work (ref-s)", out.Exec.RedoneWork())
	tb.AddRowf("pre-spike throughput (items/s)", preRate)
	tb.AddRowf("post-recovery throughput (items/s)", steady)
	tb.AddNote("drain-safe protocol: redone work must be 0")
	res.Tables = []*stats.Table{tb}
	return res, nil
}

// T2: the model-validation table. A 3-stage pipeline on 3 nodes under a
// grid of service-time and load parameter sets; for every set the
// analytic model ranks all 27 mappings and the simulator measures each
// one. Reported: whether the model's chosen mapping is measured-best
// (or within 5%), and the relative throughput error on the chosen
// mapping. A CTMC cross-check row family validates the saturation
// assumption itself on a blocking tandem line.
func runT2(seed uint64) (*Result, error) {
	type set struct {
		name  string
		works [3]float64
		loads [3]float64
	}
	sets := []set{
		{"balanced idle", [3]float64{0.1, 0.1, 0.1}, [3]float64{0, 0, 0}},
		{"balanced busy3", [3]float64{0.1, 0.1, 0.1}, [3]float64{0, 0, 0.9}},
		{"heavy mid", [3]float64{0.05, 0.3, 0.05}, [3]float64{0, 0, 0}},
		{"heavy mid busy1", [3]float64{0.05, 0.3, 0.05}, [3]float64{0.8, 0, 0}},
		{"ascending", [3]float64{0.05, 0.1, 0.2}, [3]float64{0, 0, 0}},
		{"descending busy2", [3]float64{0.2, 0.1, 0.05}, [3]float64{0, 0.7, 0}},
	}

	res := &Result{ID: "T2", Title: "model validation"}
	tb := stats.NewTable("T2 model vs simulation over all 27 mappings of 3 stages on 3 nodes",
		"parameter set", "model best", "measured best", "agree", "pred thr", "meas thr", "rel err")
	agreeCount := 0
	for _, s := range sets {
		spec := model.PipelineSpec{Stages: []model.StageSpec{
			{Name: "s1", Work: s.works[0]},
			{Name: "s2", Work: s.works[1]},
			{Name: "s3", Work: s.works[2]},
		}}
		// Nodes carry constant loads matching the estimates, so the
		// model's inputs are exact and the residual error isolates the
		// saturation approximation.
		nodes := make([]*grid.Node, 3)
		for i := range nodes {
			nodes[i] = &grid.Node{Name: fmt.Sprintf("n%d", i), Speed: 1, Cores: 1,
				Load: trace.Constant(s.loads[i])}
		}
		gl, err := grid.NewGrid(grid.LANLink, nodes...)
		if err != nil {
			return nil, err
		}
		loads := s.loads[:]

		var cands []model.Mapping
		err = model.VisitMappings(3, []grid.NodeID{0, 1, 2}, func(m model.Mapping) bool {
			cands = append(cands, m.Clone())
			return true
		})
		if err != nil {
			return nil, err
		}
		bestIdx, bestPred, err := model.Best(gl, spec, cands, loads)
		if err != nil {
			return nil, err
		}
		// Measure every mapping.
		measured := make([]float64, len(cands))
		for i, m := range cands {
			out, err := run(runConfig{Grid: gl, App: workload.App{Name: "t2", Spec: spec},
				Initial: m, Policy: adaptive.PolicyStatic, Seed: seed, Items: 300})
			if err != nil {
				return nil, err
			}
			measured[i] = 300 / out.Makespan
		}
		measBestIdx := 0
		for i := range measured {
			if measured[i] > measured[measBestIdx] {
				measBestIdx = i
			}
		}
		// Agreement: the model's choice performs within 5% of the
		// measured best (several mappings often tie).
		agree := measured[bestIdx] >= 0.95*measured[measBestIdx]
		if agree {
			agreeCount++
		}
		tb.AddRowf(s.name, cands[bestIdx].String(), cands[measBestIdx].String(),
			agree, bestPred.Throughput, measured[bestIdx],
			stats.RelErr(measured[bestIdx], bestPred.Throughput))
	}
	tb.AddNote("agreement on %d of %d parameter sets", agreeCount, len(sets))

	// CTMC cross-check: exact blocking-tandem throughput vs the
	// analytic saturation bound vs simulation with matching WIP.
	ct := stats.NewTable("T2b CTMC cross-check (3 exponential stages, saturated line)",
		"rates", "buffers", "CTMC exact", "analytic bound", "sim measured", "sim/CTMC")
	for _, row := range []struct {
		mus []float64
		buf int
	}{
		{[]float64{10, 10, 10}, 0},
		{[]float64{10, 10, 10}, 2},
		{[]float64{10, 5, 10}, 0},
		{[]float64{10, 5, 10}, 2},
		{[]float64{20, 10, 5}, 1},
	} {
		exact, err := model.SolveTandem(row.mus, row.buf)
		if err != nil {
			return nil, err
		}
		bound := row.mus[0]
		for _, mu := range row.mus {
			if mu < bound {
				bound = mu
			}
		}
		simThr, err := simulateTandem(seed, row.mus, row.buf)
		if err != nil {
			return nil, err
		}
		ct.AddRowf(fmt.Sprintf("%v", row.mus), row.buf, exact.Throughput, bound,
			simThr, simThr/exact.Throughput)
	}
	ct.AddNote("expected shape: CTMC ≤ analytic bound; simulation tracks the CTMC as WIP matches")
	res.Tables = []*stats.Table{tb, ct}
	return res, nil
}

// simulateTandem measures a saturated exponential tandem line in the
// executor, with CONWIP set to stages+buffers to mirror the CTMC's
// blocking structure.
func simulateTandem(seed uint64, mus []float64, buf int) (float64, error) {
	ns := len(mus)
	g, err := grid.Homogeneous(ns, 1, grid.LANLink)
	if err != nil {
		return 0, err
	}
	stages := make([]model.StageSpec, ns)
	for i, mu := range mus {
		stages[i] = model.StageSpec{Name: fmt.Sprintf("s%d", i), Work: 1 / mu}
	}
	spec := model.PipelineSpec{Stages: stages}
	r := rng.New(seed)
	sampler := func(stage, seq int) float64 {
		// Exponential service with the stage's mean, deterministic per
		// (stage, seq).
		rr := r.Derive(uint64(stage)<<32 | uint64(uint32(seq)))
		return rr.Exp(mus[stage])
	}
	out, err := run(runConfig{
		Grid: g, App: workload.App{Name: "tandem", Spec: spec}, Initial: model.OneToOne(ns),
		Policy: adaptive.PolicyStatic, Seed: seed, Items: 4000,
		MaxInFlight: ns + buf*(ns-1),
		Sampler:     sampler,
	})
	if err != nil {
		return 0, err
	}
	return 4000 / out.Makespan, nil
}

// T3: forecaster accuracy per trace class (the NWS battery table).
func runT3(seed uint64) (*Result, error) {
	r := rng.New(seed)
	const n = 400
	signals := []struct {
		name string
		tr   trace.Trace
	}{
		{"constant", trace.Constant(0.4)},
		{"step", trace.NewSteps(0.2, trace.StepChange{T: n / 2, Load: 0.7})},
		{"ramp", trace.Ramp{T0: 0, T1: n, From: 0.1, To: 0.8}},
		{"sine", trace.Sine{Base: 0.5, Amp: 0.3, Period: 60}},
		{"walk", trace.NewRandomWalk(r.Derive(1), n, 1, 0.4, 0.05, 0.2)},
		{"burst", trace.NewMarkovBurst(r.Derive(2), n, 1, 0.1, 0.6, 30, 10)},
	}
	makers := []func() forecast.Forecaster{
		func() forecast.Forecaster { return forecast.NewLastValue() },
		func() forecast.Forecaster { return forecast.NewRunningMean() },
		func() forecast.Forecaster { return forecast.NewSlidingMean(10) },
		func() forecast.Forecaster { return forecast.NewSlidingMedian(10) },
		func() forecast.Forecaster { return forecast.NewExpSmooth(0.3) },
		func() forecast.Forecaster { return forecast.NewAR1(20) },
		func() forecast.Forecaster { return forecast.NewDefaultBattery() },
	}
	res := &Result{ID: "T3", Title: "forecaster accuracy"}
	tb := stats.NewTable("T3 one-step forecast MSE (×1e-3) by trace class",
		"forecaster", "constant", "step", "ramp", "sine", "walk", "burst")
	type rowT struct {
		name string
		mse  []float64
	}
	var rows []rowT
	for _, mk := range makers {
		row := rowT{}
		for _, sig := range signals {
			series := trace.Sample(sig.tr, 0, n, n)
			ev := forecast.Evaluate(mk, series)
			row.name = ev.Name
			row.mse = append(row.mse, ev.MSE*1e3)
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		cells := []any{row.name}
		for _, v := range row.mse {
			cells = append(cells, v)
		}
		tb.AddRowf(cells...)
	}
	tb.AddNote("expected shape: adaptive row is near the column minimum for every class (NWS property)")
	res.Tables = []*stats.Table{tb}
	return res, nil
}

// T4: mapping-search strategy comparison: solution quality (predicted
// throughput vs the best found by any strategy) and search cost.
func runT4(seed uint64) (*Result, error) {
	r := rng.New(seed)
	res := &Result{ID: "T4", Title: "mapping search strategies"}
	tb := stats.NewTable("T4 search quality (predicted thr / best) and cost",
		"Ns", "Np", "strategy", "quality", "cost (ms)", "mapping")
	cases := []struct{ ns, np int }{{4, 4}, {8, 4}, {8, 8}, {12, 8}}
	for _, c := range cases {
		// Random stage works and node speeds, fixed per seed.
		stages := make([]model.StageSpec, c.ns)
		for i := range stages {
			stages[i] = model.StageSpec{
				Name: fmt.Sprintf("s%d", i), Work: 0.05 + 0.3*r.Float64(),
				OutBytes: 1e5, Replicable: false,
			}
		}
		spec := model.PipelineSpec{Stages: stages, InBytes: 1e5}
		speeds := make([]float64, c.np)
		for i := range speeds {
			speeds[i] = 0.5 + 3*r.Float64()
		}
		g, err := grid.Heterogeneous(speeds, grid.CampusLink)
		if err != nil {
			return nil, err
		}
		searchers := []sched.Searcher{
			sched.ContiguousDP{}, sched.Greedy{}, sched.LocalSearch{Seed: seed},
		}
		feasible := math.Pow(float64(c.np), float64(c.ns)) <= 1<<20
		if feasible {
			searchers = append([]sched.Searcher{sched.Exhaustive{}}, searchers...)
		}
		type resT struct {
			name    string
			thr     float64
			cost    time.Duration
			mapping string
		}
		var results []resT
		best := 0.0
		for _, s := range searchers {
			t0 := time.Now()
			m, pred, err := s.Search(g, spec, nil)
			cost := time.Since(t0)
			if err != nil {
				return nil, err
			}
			results = append(results, resT{s.Name(), pred.Throughput, cost, m.String()})
			if pred.Throughput > best {
				best = pred.Throughput
			}
		}
		for _, rr := range results {
			tb.AddRowf(c.ns, c.np, rr.name, rr.thr/best,
				float64(rr.cost.Microseconds())/1000, rr.mapping)
		}
	}
	tb.AddNote("quality 1.0 = the best mapping any strategy found; exhaustive rows are exact optima where present")
	res.Tables = []*stats.Table{tb}
	return res, nil
}
