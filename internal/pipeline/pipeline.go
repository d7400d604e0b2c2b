// Package pipeline is the live (goroutine/channel) implementation of
// the pipeline skeleton: the same 1-for-1 discipline the simulator
// models, executing real Go functions on the local machine.
//
// Semantics (eSkel Pipeline1for1, generalised to a stage graph):
//   - every input passes through every stage (along every edge of the
//     stage graph — see internal/topo);
//   - each stage produces exactly one output per input; a stage with
//     several out-edges broadcasts its output along each (a split), a
//     stage with several in-edges receives a []any holding one part
//     per in-edge, in edge order (a merge);
//   - outputs are delivered in input order, even when a stage is
//     replicated across several concurrent workers: each edge carries
//     a sequence-ordered stream, restored by the producing stage's
//     reorder ring, so a merge joins its in-streams by zipping them —
//     ordering survives fan-in by construction.
//
// Stage parallelism is dynamic: SetReplicas adjusts a stage's worker
// limit while the pipeline runs, which is the live counterpart of the
// simulator's replicate action. Granularity is the second knob:
// SetGrain (after EnableBatch) resizes the batches items travel in.
//
// Every pipeline runs one wiring. The unit crossing a stage boundary
// is a pooled slab of consecutively-sequenced items (batch.go); a
// pipeline built without EnableBatch runs that wiring at grain 1,
// where the entry stage hands on every item as it arrives. Each stage
// has two goroutines: a dispatcher submits its input batches as tasks
// to a shared work-stealing executor (internal/conc/steal), the
// replica limit bounding its tasks in flight, and a drainer restores
// order and owns every blocking send. The entry stage's dispatcher
// reads and packs the caller's inputs itself, and the exit stage's
// drainer sends items straight to the caller's result channel, so no
// goroutine sits between the caller and the stages. A panic in a stage
// function is recovered on its task and fails the run with an error
// naming the stage and the item. The task farm (internal/farm) is a
// one-stage pipeline; CompletionOrder switches its exit to completion
// order for the unordered farm.
//
// The hot path is allocation-free in steady state: slabs recycle
// through one process-wide pool, the reorder buffer is a
// sequence-indexed ring rather than a map, and service times
// accumulate in atomic meters rather than under a mutex. Only graphs
// with actual splits/merges pay the fan-out/fan-in goroutines (and one
// []any per item per merge boundary).
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridpipe/internal/conc"
	"gridpipe/internal/conc/steal"
	"gridpipe/internal/ring"
	"gridpipe/internal/topo"
)

// Func is the computation of one stage. It must be safe for concurrent
// invocation when the stage is replicated.
type Func func(ctx context.Context, v any) (any, error)

// Stage describes one stage of a live pipeline.
type Stage struct {
	// Name labels the stage in stats; defaults to "stageN".
	Name string
	// Fn is the stage computation (required).
	Fn Func
	// Replicas is the initial worker limit (default 1).
	Replicas int
	// Buffer is the capacity of the stage's out-edge channel (default
	// 1), the bounded inter-stage buffer of the skeleton; for the exit
	// stage it sizes the caller's result channel.
	Buffer int
}

// StageStats is a snapshot of one stage's live measurements.
type StageStats struct {
	Name        string
	Count       int
	Replicas    int
	MeanService time.Duration
	MaxService  time.Duration
}

// Pipeline is a runnable live pipeline. Create with New (a linear
// chain) or NewGraph (an arbitrary stage DAG); a Pipeline is
// single-use: Run (or Process) may be called once.
type Pipeline struct {
	stages []Stage
	edges  []topo.Edge // data-flow arcs; a chain for New
	limits []*conc.Limiter
	meters []*conc.Meter
	ran    bool
	mu     sync.Mutex

	// Grain state (see batch.go). batchOn records EnableBatch, which
	// arms the SetGrain actuator; without it the grain stays 1. grain
	// and linger are read atomically by the head batcher so SetGrain
	// actuates while the pipeline runs.
	batchOn bool
	grain   atomic.Int64
	linger  atomic.Int64 // nanoseconds

	// Per-boundary grain state (see edgegrain.go). Non-nil edgeGrains
	// means EnableBatchEdges: one atomic grain per boundary (0 = head,
	// 1+ei = edge ei), regrain marking the bridge edges whose sinks
	// re-slab, actBounds listing the independently walkable boundaries.
	edgeGrains []atomic.Int64
	regrain    []bool
	actBounds  []int

	// exec overrides the process-wide steal.Default() executor that
	// stage tasks run on (replica counts act as in-flight limits).
	exec *steal.Executor

	// unordered makes the exit stage deliver in completion order (see
	// CompletionOrder).
	unordered bool
}

// CompletionOrder makes the exit stage hand results on as its batches
// finish instead of in input order — the unordered farm is a one-stage
// pipeline with this switch set. Call before Run.
func (p *Pipeline) CompletionOrder() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unordered = true
}

// UseExecutor points the pipeline at a specific work-stealing executor
// (tests and benchmarks isolate worker sets this way). Call before
// Run; nil reselects the process-wide default.
func (p *Pipeline) UseExecutor(e *steal.Executor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exec = e
}

// executor resolves the worker set Run dispatches stage tasks to.
func (p *Pipeline) executor() *steal.Executor {
	if p.exec != nil {
		return p.exec
	}
	return steal.Default()
}

// New validates the stage list and builds a linear pipeline: stage i
// feeds stage i+1.
func New(stages ...Stage) (*Pipeline, error) {
	var edges []topo.Edge
	for i := 0; i+1 < len(stages); i++ {
		edges = append(edges, topo.Edge{From: i, To: i + 1})
	}
	return NewGraph(stages, edges)
}

// NewGraph validates the stages and edges and builds a stage-graph
// pipeline. The edge set must satisfy the internal/topo structural
// contract: stages listed in topological order (From < To on every
// edge), one entry (stage 0), one exit (the last stage), every stage
// on an entry→exit path. A stage with several in-edges receives a
// []any of parts in in-edge order.
func NewGraph(stages []Stage, edges []topo.Edge) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	p := &Pipeline{
		stages: make([]Stage, len(stages)),
		edges:  append([]topo.Edge(nil), edges...),
	}
	copy(p.stages, stages)
	p.grain.Store(1)
	tg := &topo.Graph{Stages: make([]topo.Stage, len(stages)), Edges: p.edges}
	for i := range p.stages {
		st := &p.stages[i]
		if st.Fn == nil {
			return nil, fmt.Errorf("pipeline: stage %d has no function", i)
		}
		if st.Name == "" {
			st.Name = fmt.Sprintf("stage%d", i)
		}
		if st.Replicas <= 0 {
			st.Replicas = 1
		}
		if st.Buffer <= 0 {
			st.Buffer = 1
		}
		tg.Stages[i] = topo.Stage{Name: st.Name}
		p.limits = append(p.limits, conc.NewLimiter(st.Replicas))
		p.meters = append(p.meters, &conc.Meter{})
	}
	if err := tg.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NumStages returns the stage count.
func (p *Pipeline) NumStages() int { return len(p.stages) }

// SetReplicas changes the worker limit of stage i (minimum 1). Safe to
// call while the pipeline runs; shrinking takes effect as in-flight
// items finish.
func (p *Pipeline) SetReplicas(i, n int) error {
	if i < 0 || i >= len(p.stages) {
		return fmt.Errorf("pipeline: SetReplicas on invalid stage %d", i)
	}
	if n < 1 {
		return fmt.Errorf("pipeline: SetReplicas(%d) below 1", n)
	}
	p.limits[i].SetLimit(n)
	return nil
}

// Replicas returns the current worker limit of stage i.
func (p *Pipeline) Replicas(i int) int { return p.limits[i].Limit() }

// StageTotals returns stage i's cumulative completed-item count and
// summed service time. The live adaptive sensor diffs two readings to
// get windowed mean service times without the pipeline keeping any
// per-window state.
func (p *Pipeline) StageTotals(i int) (count int64, sum time.Duration) {
	return p.meters[i].Totals()
}

// Stats snapshots per-stage counters.
func (p *Pipeline) Stats() []StageStats {
	out := make([]StageStats, len(p.stages))
	for i := range p.stages {
		count, mean, max := p.meters[i].Snapshot()
		out[i] = StageStats{
			Name:        p.stages[i].Name,
			Count:       count,
			Replicas:    p.limits[i].Limit(),
			MeanService: mean,
			MaxService:  max,
		}
	}
	return out
}

// Run starts the pipeline over the input stream. The returned output
// channel yields results in input order (completion order after
// CompletionOrder) and is closed when the input
// channel is exhausted and drained, the context is cancelled, or a
// stage fails. The error channel delivers at most one error (stage
// failure or ctx.Err) and is closed with the output.
func (p *Pipeline) Run(ctx context.Context, inputs <-chan any) (<-chan any, <-chan error) {
	p.mu.Lock()
	if p.ran {
		p.mu.Unlock()
		panic("pipeline: Run called twice")
	}
	p.ran = true
	unordered := p.unordered
	p.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Wire one *batch channel per graph edge, buffered by the producing
	// stage's capacity. The entry stage packs the caller's inputs
	// itself and the exit stage's drainer unpacks into the result
	// channel, so neither end has a channel of its own. Splits share
	// each batch across their out-edges through a fan-out goroutine;
	// merges zip their in-streams, which are all ordered 0,1,2,…, so
	// the join is a lockstep read — 1-for-1 ordering survives fan-in by
	// construction.
	n := len(p.stages)
	inEdges := make([][]int, n)
	outEdges := make([][]int, n)
	for ei, e := range p.edges {
		outEdges[e.From] = append(outEdges[e.From], ei)
		inEdges[e.To] = append(inEdges[e.To], ei)
	}
	chans := make([]chan *batch, len(p.edges))
	for ei, e := range p.edges {
		chans[ei] = make(chan *batch, p.stages[e.From].Buffer)
	}
	results := make(chan any, p.stages[n-1].Buffer)
	errs := make(chan error, 1)

	var wg sync.WaitGroup
	for i := range p.stages {
		var in <-chan *batch // nil for the entry stage
		switch {
		case len(inEdges[i]) == 1:
			in = chans[inEdges[i][0]]
		case len(inEdges[i]) > 1: // merge: zip the batch streams
			ins := make([]<-chan *batch, len(inEdges[i]))
			for k, ei := range inEdges[i] {
				ins[k] = chans[ei]
			}
			joined := make(chan *batch, p.stages[i].Buffer)
			wg.Add(1)
			go fanIn(ctx, ins, joined, &wg, fail)
			in = joined
		}
		sink := batchSink{ctx: ctx}
		switch {
		case len(outEdges[i]) == 0: // exit
			sink.results = results
		case len(outEdges[i]) == 1:
			ei := outEdges[i][0]
			sink.out = chans[ei]
			// A bridge edge with its own grain (EnableBatchEdges)
			// re-slabs at the producing stage's sink; bridge edges
			// always leave a single-out stage, so a split never
			// re-slabs (its consumers share one slab and must agree on
			// its shape).
			if p.regrain != nil && p.regrain[ei] {
				sink.grain = &p.edgeGrains[1+ei]
			}
		default: // split: share the batch across every out-edge
			outs := make([]chan<- *batch, len(outEdges[i]))
			for k, ei := range outEdges[i] {
				outs[k] = chans[ei]
			}
			spread := make(chan *batch, p.stages[i].Buffer)
			wg.Add(1)
			go fanOut(ctx, spread, outs, &wg)
			sink.out = spread
		}
		// The stage's whole state is built before its goroutines start,
		// so the entry stage accepts its first input without first
		// allocating its sinks and closures.
		st := p.newStageRun(ctx, i, sink, unordered && sink.results != nil, fail)
		wg.Add(2)
		go st.drain(&wg)
		if in == nil {
			go st.packInputs(p, inputs, &wg)
		} else {
			go st.dispatch(in, &wg)
		}
	}

	go func() {
		wg.Wait()
		if firstErr == nil && ctx.Err() != nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			errs <- firstErr
		}
		close(errs)
		close(results)
		cancel()
	}()
	return results, errs
}

// taskSink is the reorder ring between a stage's executor tasks and
// its drainer: completed tasks put their output batch (nil for a
// failed task's tombstone) into the ring without ever blocking
// (executor workers must stay runnable — see stageRun), and the
// stage's drainer goroutine pulls them in index order via next,
// blocking there instead. Under arrival (the unordered exit stage)
// each put is keyed by completion order instead of batch index, so the
// same ring hands batches on as they finish. notify is a buffered(1)
// edge trigger: a put that finds it full loses nothing, because the
// drainer re-scans the ring before sleeping.
type taskSink struct {
	mu      sync.Mutex
	pending ring.Reorder[*batch]
	arrival bool
	arrived int // next completion-order key (under arrival)
	total   int // batches submitted; -1 until the stage's input ends
	notify  chan struct{}
}

func (s *taskSink) put(idx int, b *batch) {
	s.mu.Lock()
	if s.arrival {
		idx = s.arrived
		s.arrived++
	}
	s.pending.Put(idx, b)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// close marks the stream complete after total batches; next returns
// false once all of them have been taken.
func (s *taskSink) close(total int) {
	s.mu.Lock()
	s.total = total
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// next blocks until the next batch is available (or the sink is closed
// and drained).
func (s *taskSink) next() (*batch, bool) {
	for {
		s.mu.Lock()
		if _, b, ok := s.pending.PopNext(); ok {
			s.mu.Unlock()
			return b, true
		}
		done := s.pending.Next() == s.total
		s.mu.Unlock()
		if done {
			return nil, false
		}
		<-s.notify
	}
}

// Process runs the pipeline over a slice and returns the outputs in
// input order.
func (p *Pipeline) Process(ctx context.Context, inputs []any) ([]any, error) {
	in := make(chan any)
	go func() {
		defer close(in)
		for _, v := range inputs {
			select {
			case in <- v:
			case <-ctx.Done():
				return
			}
		}
	}()
	out, errs := p.Run(ctx, in)
	var results []any
	for v := range out {
		results = append(results, v)
	}
	if err := <-errs; err != nil {
		return nil, err
	}
	if len(results) != len(inputs) {
		return nil, fmt.Errorf("pipeline: %d outputs for %d inputs", len(results), len(inputs))
	}
	return results, nil
}
