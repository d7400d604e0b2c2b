// Package farm implements the task-farm skeleton, the pipeline's
// sibling pattern in the eSkel family and the building block behind
// stage replication: a dynamic pool of workers applies one function to
// a stream of independent tasks.
//
// The farm preserves input order on request (the default matches the
// pipeline's 1-for-1 discipline) and its worker count is resizable at
// run time — the live counterpart of the adaptivity engine's replicate
// action, exposed as a standalone skeleton so applications that are a
// single parallel stage need not wrap themselves in a pipeline.
//
// Replicating a pipeline stage is a farm, so a farm is a one-stage
// pipeline — the degenerate chain of the stage-graph runtime
// (internal/topo), wired source→stage→sink, with the pipeline's
// batching, executor, and panic recovery. Both orders run that one
// wiring: unordered mode only switches the stage's exit to completion
// order (pipeline.CompletionOrder). Workers is the stage's replica
// limit and Batch its grain, both adjustable while running.
package farm

import (
	"context"
	"fmt"
	"time"

	"gridpipe/internal/conc/steal"
	"gridpipe/internal/pipeline"
)

// Func is the worker computation. It must be safe for concurrent
// invocation.
type Func func(ctx context.Context, v any) (any, error)

// Options tune a Farm.
type Options struct {
	// Workers is the initial worker limit (default 1).
	Workers int
	// Buffer is the capacity of the farm stage's out-edge channel —
	// the stage is the exit, so that is the caller's result channel
	// (default the worker count).
	Buffer int
	// Unordered delivers results as they complete instead of in input
	// order. Ordered delivery (the default) matches Pipeline1for1.
	Unordered bool
	// Batch is the number of tasks dispatched together as one
	// executor task (default 1 = per-task). Larger batches amortise
	// the limiter, handoff, and result-ring synchronisation over Batch
	// tasks; SetBatch adjusts it while running, in both orders.
	Batch int
	// Linger bounds how long a partial batch may wait for more input
	// before being dispatched anyway (default pipeline.DefaultLinger;
	// only meaningful while the batch size is above 1).
	Linger time.Duration
}

// Stats is a snapshot of the farm's counters.
type Stats struct {
	Workers     int
	Done        int
	MeanService time.Duration
	MaxService  time.Duration
}

// Farm is a runnable task farm. Create with New; single-use like the
// pipeline skeleton.
type Farm struct {
	pl *pipeline.Pipeline
}

// New validates and builds a farm.
func New(fn Func, opts Options) (*Farm, error) {
	if fn == nil {
		return nil, fmt.Errorf("farm: nil function")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Buffer <= 0 {
		opts.Buffer = opts.Workers
	}
	if opts.Batch < 0 {
		return nil, fmt.Errorf("farm: negative batch %d", opts.Batch)
	}
	if opts.Batch == 0 {
		opts.Batch = 1
	}
	pl, err := pipeline.New(pipeline.Stage{
		Name:     "farm",
		Fn:       pipeline.Func(fn),
		Replicas: opts.Workers,
		Buffer:   opts.Buffer,
	})
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	// Batching is always armed, so SetBatch actuates mid-run in both
	// orders; at Batch 1 the wiring is the same grain-1 pipeline.
	if err := pl.EnableBatch(opts.Batch, opts.Linger); err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	if opts.Unordered {
		pl.CompletionOrder()
	}
	return &Farm{pl: pl}, nil
}

// UseExecutor points the farm at a specific work-stealing executor
// (see pipeline.UseExecutor). Call before Run.
func (f *Farm) UseExecutor(e *steal.Executor) { f.pl.UseExecutor(e) }

// Run starts the farm over the input stream. Semantics mirror
// pipeline.Pipeline.Run: the output channel closes after the inputs
// drain (or on failure/cancellation); the error channel carries at most
// one error.
func (f *Farm) Run(ctx context.Context, inputs <-chan any) (<-chan any, <-chan error) {
	return f.pl.Run(ctx, inputs)
}

// Process runs the farm over a slice. In ordered mode the outputs align
// with the inputs; in unordered mode they arrive in completion order.
func (f *Farm) Process(ctx context.Context, inputs []any) ([]any, error) {
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
	out, errs := f.Run(ctx, in)
	var results []any
	for v := range out {
		results = append(results, v)
	}
	if err := <-errs; err != nil {
		return nil, err
	}
	if len(results) != len(inputs) {
		return nil, fmt.Errorf("farm: %d outputs for %d inputs", len(results), len(inputs))
	}
	return results, nil
}

// SetBatch changes the dispatch batch size (minimum 1); callable
// before and while running, in both orders — the grain counterpart of
// SetWorkers, used by the live adaptive controller's granularity
// actuator.
func (f *Farm) SetBatch(n int) error {
	if n < 1 {
		return fmt.Errorf("farm: SetBatch(%d) below 1", n)
	}
	return f.pl.SetGrain(n)
}

// Batch returns the current dispatch batch size.
func (f *Farm) Batch() int { return f.pl.Grain() }

// SetWorkers resizes the pool (minimum 1); callable while running.
func (f *Farm) SetWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("farm: SetWorkers(%d) below 1", n)
	}
	return f.pl.SetReplicas(0, n)
}

// Workers returns the current worker limit.
func (f *Farm) Workers() int { return f.pl.Replicas(0) }

// Totals returns the cumulative completed-task count and summed
// service time (see conc.Meter.Totals); the live adaptive sensor
// diffs two readings for windowed means.
func (f *Farm) Totals() (count int64, sum time.Duration) { return f.pl.StageTotals(0) }

// Stats snapshots the farm's counters.
func (f *Farm) Stats() Stats {
	st := f.pl.Stats()[0]
	return Stats{
		Workers:     st.Replicas,
		Done:        st.Count,
		MeanService: st.MeanService,
		MaxService:  st.MaxService,
	}
}
