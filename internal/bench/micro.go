package bench

// Micro-benchmarks for the hot paths: the event calendar, the live
// skeleton's replicated-stage boundary (dispatch + reorder), the farm,
// and an end-to-end simulated run. They exist in the library (not only
// under _test) so cmd/pipebench can execute them with
// testing.Benchmark and gate their allocations; the root bench_test.go
// wraps each one as a normal `go test -bench` benchmark.
//
// Each benchmark reports allocations and an "items/s" metric (events/s
// for the calendar); `make alloc-gate` holds every allocation count at
// 0 (see DESIGN.md, "Benchmark protocol").

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"gridpipe/internal/conc/steal"
	"gridpipe/internal/exec"
	"gridpipe/internal/farm"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/pipeline"
	"gridpipe/internal/sim"
	"gridpipe/internal/workload"
)

// Micro is one named micro-benchmark.
type Micro struct {
	Name string
	Desc string
	Run  func(b *testing.B)
}

// Micros returns the micro-benchmark suite in a stable order.
func Micros() []Micro {
	return []Micro{
		{
			Name: "engine/schedule_step",
			Desc: "event calendar: 64 Schedule→Step cycles per op (pooled slab + index heap)",
			Run:  benchEngineScheduleStep,
		},
		{
			Name: "engine/schedule_cancel",
			Desc: "event calendar: schedule 64, cancel half through handles, drain",
			Run:  benchEngineScheduleCancel,
		},
		{
			Name: "pipeline/reorder_stage",
			Desc: "live replicated-stage boundary: persistent workers + ring reorderer, per item",
			Run:  benchPipelineReorderStage,
		},
		{
			Name: "pipeline/batch_boundary",
			Desc: "batched replicated-stage boundary: 64-item pooled slabs through persistent workers + per-batch ring reorderer, per item",
			Run:  benchPipelineBatchBoundary,
		},
		{
			Name: "farm/unordered",
			Desc: "unordered farm throughput: a one-stage pipeline delivering in completion order, per item",
			Run:  benchFarmUnordered,
		},
		{
			Name: "exec/run_items",
			Desc: "end-to-end simulated item through a 4-stage mapped pipeline (pooled items/tasks/transfers)",
			Run:  benchExecRunItems,
		},
		{
			Name: "workload/arrival_next",
			Desc: "open-loop arrival generation: 64 Next draws per op across poisson/bursty/diurnal/pareto (items/s = arrival events)",
			Run:  benchArrivalNext,
		},
		{
			Name: "steal/local_pop",
			Desc: "work-stealing deque: 64 owner Push→Pop cycles per op on one deque",
			Run:  benchStealLocalPop,
		},
		{
			Name: "steal/steal_half",
			Desc: "work-stealing deque: fill 64, thief steals half repeatedly until dry, per op",
			Run:  benchStealStealHalf,
		},
		{
			Name: "steal/inject",
			Desc: "executor global inject ring: 64 Submit→complete cycles per op through a live executor",
			Run:  benchStealInject,
		},
		{
			Name: "sched/search",
			Desc: "branch-and-bound exhaustive search, T4 8x4 config through a persistent scratch (items/s = candidates evaluated)",
			Run:  benchSchedSearch,
		},
		{
			Name: "cluster/arbitrate",
			Desc: "steady-state incremental arbitration round, 3 tenants replayed from the divider memo (items/s = tenant placements)",
			Run:  benchClusterArbitrate,
		},
	}
}

// MicroByName returns the named micro-benchmark.
func MicroByName(name string) (Micro, error) {
	for _, m := range Micros() {
		if m.Name == name {
			return m, nil
		}
	}
	return Micro{}, fmt.Errorf("bench: unknown micro-benchmark %q", name)
}

// MicroResult is the machine-readable outcome of one micro-benchmark,
// the row format of pipebench's -benchout report.
type MicroResult struct {
	Name        string  `json:"name"`
	Desc        string  `json:"desc"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	ItemsPerSec float64 `json:"items_per_s,omitempty"`
}

// RunMicros executes the whole suite with testing.Benchmark and
// returns one result per benchmark.
func RunMicros() []MicroResult {
	micros := Micros()
	out := make([]MicroResult, 0, len(micros))
	for _, m := range micros {
		r := testing.Benchmark(m.Run)
		out = append(out, MicroResult{
			Name:        m.Name,
			Desc:        m.Desc,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			ItemsPerSec: r.Extra["items/s"],
		})
	}
	return out
}

// calendarBatch is the number of Schedule→Step cycles per benchmark op:
// large enough that per-op alloc counts are integers, small enough that
// the heap stays realistic.
const calendarBatch = 64

func benchEngineScheduleStep(b *testing.B) {
	var eng sim.Engine
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < calendarBatch; j++ {
			eng.Schedule(float64(j&7), fn)
		}
		for eng.Step() {
		}
	}
	b.ReportMetric(float64(b.N*calendarBatch)/b.Elapsed().Seconds(), "items/s")
}

func benchEngineScheduleCancel(b *testing.B) {
	var eng sim.Engine
	fn := func() {}
	var handles [calendarBatch]sim.Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < calendarBatch; j++ {
			handles[j] = eng.Schedule(float64(j&7), fn)
		}
		for j := 0; j < calendarBatch; j += 2 {
			handles[j].Cancel()
		}
		for eng.Step() {
		}
	}
	b.ReportMetric(float64(b.N*calendarBatch)/b.Elapsed().Seconds(), "items/s")
}

// stageItems runs b.N pre-boxed items through a 1-stage skeleton run
// function and reports per-item metrics. Values are pre-boxed (nil) so
// the measurement isolates the skeleton machinery from caller-side
// interface boxing.
func stageItems(b *testing.B, run func(ctx context.Context, in <-chan any) (<-chan any, <-chan error)) {
	in := make(chan any, 256)
	out, errs := run(context.Background(), in)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			in <- nil
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
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
}

func benchPipelineReorderStage(b *testing.B) {
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	p, err := pipeline.New(pipeline.Stage{Name: "r", Fn: ident, Replicas: 8, Buffer: 64})
	if err != nil {
		b.Fatal(err)
	}
	stageItems(b, p.Run)
}

func benchPipelineBatchBoundary(b *testing.B) {
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	p, err := pipeline.New(pipeline.Stage{Name: "r", Fn: ident, Replicas: 8, Buffer: 64})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.EnableBatch(64, 0); err != nil {
		b.Fatal(err)
	}
	stageItems(b, p.Run)
}

func benchFarmUnordered(b *testing.B) {
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	f, err := farm.New(ident, farm.Options{Workers: 8, Buffer: 64, Unordered: true})
	if err != nil {
		b.Fatal(err)
	}
	stageItems(b, f.Run)
}

func benchArrivalNext(b *testing.B) {
	procs := []workload.ArrivalProcess{
		workload.NewPoisson(10, 1),
		workload.NewBursty(5, 20, 20, 10, 2),
		workload.NewDiurnal(10, 6, 120, 0, 3),
		workload.NewPareto(10, 1.5, 4),
	}
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := procs[i&3]
		for j := 0; j < calendarBatch; j++ {
			sink += p.Next()
		}
	}
	b.ReportMetric(float64(b.N*calendarBatch)/b.Elapsed().Seconds(), "items/s")
	if sink < 0 {
		b.Fatal("negative gap sum")
	}
}

func benchStealLocalPop(b *testing.B) {
	var dq steal.Deque
	fn := func(any) {}
	t := steal.Task{Fn: fn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < calendarBatch; j++ {
			if !dq.Push(t) {
				b.Fatal("deque full")
			}
		}
		for j := 0; j < calendarBatch; j++ {
			if _, ok := dq.Pop(); !ok {
				b.Fatal("deque empty")
			}
		}
	}
	b.ReportMetric(float64(b.N*calendarBatch)/b.Elapsed().Seconds(), "items/s")
}

func benchStealStealHalf(b *testing.B) {
	var victim steal.Deque
	var buf [calendarBatch]steal.Task
	fn := func(any) {}
	t := steal.Task{Fn: fn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < calendarBatch; j++ {
			if !victim.Push(t) {
				b.Fatal("deque full")
			}
		}
		taken := 0
		for taken < calendarBatch {
			k := victim.Steal(buf[:])
			if k == 0 {
				b.Fatal("steal found nothing with work queued")
			}
			taken += k
		}
	}
	b.ReportMetric(float64(b.N*calendarBatch)/b.Elapsed().Seconds(), "items/s")
}

func benchStealInject(b *testing.B) {
	ex := steal.New(2)
	b.Cleanup(ex.Close)
	var done atomic.Int64
	fn := func(any) { done.Add(1) }
	t := steal.Task{Fn: fn}
	// Warm the inject ring so steady state never grows it.
	for j := 0; j < calendarBatch; j++ {
		ex.Submit(t)
	}
	for done.Load() != calendarBatch {
		runtime.Gosched()
	}
	done.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < calendarBatch; j++ {
			ex.Submit(t)
		}
		want := int64(i+1) * calendarBatch
		for done.Load() != want {
			runtime.Gosched()
		}
	}
	b.ReportMetric(float64(b.N*calendarBatch)/b.Elapsed().Seconds(), "items/s")
}

func benchExecRunItems(b *testing.B) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		b.Fatal(err)
	}
	spec := model.Balanced(4, 0.1, 1e5)
	items := b.N
	if items < 10 {
		items = 10
	}
	eng := acquireEngine()
	defer releaseEngine(eng)
	e, err := exec.New(eng, g, spec, model.OneToOne(4), exec.Options{MaxInFlight: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.RunItems(items); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(items)/b.Elapsed().Seconds(), "items/s")
}
