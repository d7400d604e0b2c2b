package gridpipe

// One testing.B benchmark per experiment in DESIGN.md's index: running
// `go test -bench=.` regenerates every table and figure of the
// reconstructed evaluation suite. Micro-benchmarks for the hot paths
// (live pipeline, simulator, model, CTMC solver) follow.

import (
	"context"
	"testing"

	"gridpipe/internal/bench"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/pipeline"
	"gridpipe/internal/sched"
	"gridpipe/internal/sim"
	"gridpipe/internal/workload"
)

// benchExperiment runs one harness experiment per iteration and prints
// its tables once so the benchmark log doubles as the reproduced
// evaluation output.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		res, err := e.Run(42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.Log("\n" + last.String())
	}
}

func BenchmarkF1ThroughputTimeline(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkF2Speedup(b *testing.B)            { benchExperiment(b, "F2") }
func BenchmarkF3PerturbationSweep(b *testing.B)  { benchExperiment(b, "F3") }
func BenchmarkF4Replication(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkF5Heterogeneity(b *testing.B)      { benchExperiment(b, "F5") }
func BenchmarkF6StageScalability(b *testing.B)   { benchExperiment(b, "F6") }
func BenchmarkT1Overhead(b *testing.B)           { benchExperiment(b, "T1") }
func BenchmarkT2ModelValidation(b *testing.B)    { benchExperiment(b, "T2") }
func BenchmarkT3Forecasters(b *testing.B)        { benchExperiment(b, "T3") }
func BenchmarkT4MappingSearch(b *testing.B)      { benchExperiment(b, "T4") }
func BenchmarkF7Saturation(b *testing.B)         { benchExperiment(b, "F7") }
func BenchmarkF8DiamondTopology(b *testing.B)    { benchExperiment(b, "F8") }
func BenchmarkF9Churn(b *testing.B)              { benchExperiment(b, "F9") }
func BenchmarkF10ElasticJoin(b *testing.B)       { benchExperiment(b, "F10") }
func BenchmarkF11LiveAdaptivity(b *testing.B)    { benchExperiment(b, "F11") }
func BenchmarkT5LatencyModel(b *testing.B)       { benchExperiment(b, "T5") }
func BenchmarkA1Triggers(b *testing.B)           { benchExperiment(b, "A1") }
func BenchmarkA2RemapProtocol(b *testing.B)      { benchExperiment(b, "A2") }
func BenchmarkA3Hysteresis(b *testing.B)         { benchExperiment(b, "A3") }

// --- hot-path micro-benchmarks ------------------------------------------

// The canonical hot-path micro-benchmarks live in internal/bench
// (Micros) so cmd/pipebench can run the same suite and emit
// BENCH_*.json; these wrappers expose each one to `go test -bench`.
// Run with -benchmem: the allocs/op columns are the numbers the
// acceptance gates track (see DESIGN.md, "Benchmark protocol").

func benchMicro(b *testing.B, name string) {
	m, err := bench.MicroByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m.Run(b)
}

func BenchmarkEngineScheduleStep(b *testing.B)   { benchMicro(b, "engine/schedule_step") }
func BenchmarkEngineSeedCalendar(b *testing.B)   { benchMicro(b, "engine/seed_calendar") }
func BenchmarkEngineScheduleCancel(b *testing.B) { benchMicro(b, "engine/schedule_cancel") }
func BenchmarkReorderStage(b *testing.B)         { benchMicro(b, "pipeline/reorder_stage") }
func BenchmarkBatchBoundary(b *testing.B)        { benchMicro(b, "pipeline/batch_boundary") }
func BenchmarkSeedReorderStage(b *testing.B)     { benchMicro(b, "pipeline/seed_reorder_stage") }
func BenchmarkFarmUnordered(b *testing.B)        { benchMicro(b, "farm/unordered") }
func BenchmarkExecRunItems(b *testing.B)         { benchMicro(b, "exec/run_items") }
func BenchmarkStealLocalPop(b *testing.B)        { benchMicro(b, "steal/local_pop") }
func BenchmarkStealStealHalf(b *testing.B)       { benchMicro(b, "steal/steal_half") }
func BenchmarkStealInject(b *testing.B)          { benchMicro(b, "steal/inject") }
func BenchmarkSchedSearch(b *testing.B)          { benchMicro(b, "sched/search") }
func BenchmarkClusterArbitrate(b *testing.B)     { benchMicro(b, "cluster/arbitrate") }
func BenchmarkArrivalNext(b *testing.B)          { benchMicro(b, "workload/arrival_next") }

// --- micro-benchmarks ---------------------------------------------------

// BenchmarkLivePipeline measures per-item overhead of the live skeleton
// (channels + reorder buffer) with trivial stages.
func BenchmarkLivePipeline(b *testing.B) {
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	p, err := pipeline.New(
		pipeline.Stage{Name: "a", Fn: ident},
		pipeline.Stage{Name: "b", Fn: ident, Replicas: 4},
		pipeline.Stage{Name: "c", Fn: ident},
	)
	if err != nil {
		b.Fatal(err)
	}
	in := make(chan any, 64)
	out, errs := p.Run(context.Background(), in)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			in <- i
		}
		close(in)
	}()
	count := 0
	for range out {
		count++
	}
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	if count != b.N {
		b.Fatalf("lost items: %d of %d", count, b.N)
	}
}

// BenchmarkSimExecutor measures simulated items per wall-clock second:
// the cost of one item moving through a 4-stage mapped pipeline in
// virtual time.
func BenchmarkSimExecutor(b *testing.B) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		b.Fatal(err)
	}
	spec := model.Balanced(4, 0.1, 1e5)
	b.ResetTimer()
	items := b.N
	if items < 10 {
		items = 10
	}
	eng := &sim.Engine{}
	e, err := exec.New(eng, g, spec, model.OneToOne(4), exec.Options{MaxInFlight: 16})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunItems(items); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkModelPredict measures one analytic evaluation of a mapping —
// the inner loop of every search strategy.
func BenchmarkModelPredict(b *testing.B) {
	g, err := grid.Homogeneous(8, 1, grid.LANLink)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Video().Spec
	m := model.FromNodes(0, 1, 2, 3, 4)
	loads := []float64{0.1, 0.2, 0, 0, 0.5, 0, 0.3, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(g, spec, m, loads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalSearch measures a full mapping search on a mid-size
// instance — what one adaptation decision costs.
func BenchmarkLocalSearch(b *testing.B) {
	g, err := grid.Heterogeneous([]float64{1, 2, 1, 3, 1, 2, 1, 4}, grid.LANLink)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Video().Spec
	s := sched.LocalSearch{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Search(g, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCTMCSolve measures the exact tandem-line solution used in
// the T2 cross-check.
func BenchmarkCTMCSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := model.SolveTandem([]float64{10, 5, 10, 8}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscreteEventEngine measures raw event throughput of the
// simulation core.
func BenchmarkDiscreteEventEngine(b *testing.B) {
	var eng sim.Engine
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		if count < b.N {
			eng.Schedule(1, reschedule)
		}
	}
	eng.Schedule(1, reschedule)
	b.ResetTimer()
	eng.Run()
	if count < b.N {
		b.Fatalf("fired %d of %d", count, b.N)
	}
}

// BenchmarkEndToEndAdaptiveRun measures a complete adaptive scenario —
// grid + executor + controller — per iteration, the macro cost of the
// whole stack.
func BenchmarkEndToEndAdaptiveRun(b *testing.B) {
	app := workload.Image()
	for i := 0; i < b.N; i++ {
		g, err := grid.Homogeneous(6, 1, grid.LANLink)
		if err != nil {
			b.Fatal(err)
		}
		p, err := New(
			Stage("decode", nil, Weight(0.05), OutBytes(4e6)),
			Stage("filter", nil, Weight(0.2), OutBytes(4e6), Replicable()),
			Stage("sharpen", nil, Weight(0.1), OutBytes(4e6), Replicable()),
			Stage("encode", nil, Weight(0.08), OutBytes(0.8e6)),
		)
		if err != nil {
			b.Fatal(err)
		}
		_ = g
		sg, err := HomogeneousGrid(6)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := p.Simulate(sg, SimOptions{Items: 200, Policy: PolicyReactive, Seed: uint64(i), CV: app.CV})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Done != 200 {
			b.Fatal("incomplete run")
		}
	}
}
