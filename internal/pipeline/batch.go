// Batched stage boundaries: the granularity-adaptation half of the
// live runtime (the paper's central knob, applied to goroutines and
// channels instead of grid transfers).
//
// The unit that crosses every stage boundary is a *batch — a pooled
// slab of consecutively-sequenced items. Every boundary cost (channel
// send/receive, limiter acquire/release, reorder-ring bookkeeping,
// task handoff) is paid once per batch and amortised over its items,
// which is exactly the fixed-overhead amortisation argument the cost
// model's BatchOverhead term captures (internal/model). A pipeline
// without EnableBatch runs at grain 1: one item per batch.
//
// Invariants:
//
//   - batches are formed exactly once, by the entry stage, which packs
//     the caller's inputs itself (packHead) and submits each batch as
//     one task; every stage maps one input batch to one output batch
//     of the same index, first sequence number, and length, so batch
//     boundaries stay aligned along every path of the stage graph and
//     a fan-in zips its in-streams batch-by-batch;
//   - the entry stage flushes a batch when it reaches the current
//     grain (SetGrain, readable while running — the adaptive
//     controller's second actuator dimension) or when the oldest item
//     in it has lingered for the linger timeout, so a trickle input
//     keeps bounded latency: downstream boundaries never hold a batch,
//     which makes the head's linger the only batching wait anywhere.
//     At grain 1 every item is a full batch, flushed on arrival, so
//     the linger timer is never even created;
//   - the exit stage's drainer unpacks each batch into the caller's
//     result channel — in index order, or in completion order under
//     CompletionOrder (the unordered farm);
//   - slabs are reference-counted (a fan-out shares one batch among
//     all out-edges) and recycled through one process-wide sync.Pool,
//     so the steady-state boundary performs no per-item and no
//     per-batch heap allocation, and a fresh pipeline starts on slabs
//     that earlier pipelines released;
//   - ordered output does not depend on grain or linger: stages
//     process a batch's items in sequence order and batches are
//     restored to index order at every boundary, so Run/Process emit
//     the same values in the same order as evaluating the stage graph
//     item by item, for every grain and linger.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gridpipe/internal/conc"
	"gridpipe/internal/conc/steal"
)

// DefaultLinger bounds how long a partial batch may wait at the head
// for more input before it is flushed anyway.
const DefaultLinger = time.Millisecond

// batch is a pooled slab of consecutively-sequenced items crossing a
// stage boundary together. seq is the sequence number of items[0];
// idx counts batches 0,1,2,… in head order (the reorder key). refs is
// the number of consumers still holding the slab — a broadcast hands
// the same batch to every out-edge. eager marks a batch flushed by
// linger, end-of-input, or an idle input: every stage propagates it,
// and a coarsening per-edge boundary (edgegrain.go) flushes its
// accumulator on seeing it instead of waiting to fill — which keeps
// the head's linger the dominant batching wait even when a downstream
// boundary re-slabs to a larger grain.
type batch struct {
	idx   int
	seq   int
	items []any
	refs  int32
	eager bool
}

// slabs recycles *batch slabs across every pipeline in the process.
var slabs sync.Pool

// newBatch takes a slab from the pool (or allocates the first time a
// fresh high-water mark is reached) and resets it for one consumer.
func newBatch(idx, seq int) *batch {
	b, _ := slabs.Get().(*batch)
	if b == nil {
		b = &batch{}
	}
	b.idx, b.seq = idx, seq
	b.items = b.items[:0]
	b.eager = false
	atomic.StoreInt32(&b.refs, 1)
	return b
}

// releaseBatch drops one reference and recycles the slab when the last
// consumer is done. Items are zeroed so the pool does not retain user
// values.
func releaseBatch(b *batch) {
	if atomic.AddInt32(&b.refs, -1) != 0 {
		return
	}
	clear(b.items)
	b.items = b.items[:0]
	slabs.Put(b)
}

// EnableBatch sets the pipeline's grain before Run and arms SetGrain:
// items cross boundaries in slabs of up to grain items, flushed early
// when the oldest item has waited linger (linger <= 0 picks
// DefaultLinger). The grain stays adjustable while running.
func (p *Pipeline) EnableBatch(grain int, linger time.Duration) error {
	if grain < 1 {
		return fmt.Errorf("pipeline: EnableBatch grain %d below 1", grain)
	}
	if linger <= 0 {
		linger = DefaultLinger
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ran {
		return fmt.Errorf("pipeline: EnableBatch after Run")
	}
	p.batchOn = true
	p.grain.Store(int64(grain))
	p.linger.Store(int64(linger))
	return nil
}

// SetGrain adjusts the batch size items travel in (minimum 1). Safe to
// call while the pipeline runs — the head applies it to the next batch
// it opens — which makes grain a live actuator dimension alongside
// SetReplicas. It requires EnableBatch: without it the pipeline keeps
// grain 1, and the error tells callers (liveadapt) that its grain is
// not an actuator.
func (p *Pipeline) SetGrain(n int) error {
	if n < 1 {
		return fmt.Errorf("pipeline: SetGrain(%d) below 1", n)
	}
	if !p.batchOn {
		return fmt.Errorf("pipeline: SetGrain without EnableBatch")
	}
	p.grain.Store(int64(n))
	// On a per-edge pipeline a single global SetGrain means "uniform":
	// every boundary moves together, which is always a valid vector.
	if p.edgeGrains != nil {
		for b := range p.edgeGrains {
			p.edgeGrains[b].Store(int64(n))
		}
	}
	return nil
}

// Grain returns the current head batch size (1 without EnableBatch).
func (p *Pipeline) Grain() int { return int(p.grain.Load()) }

// packHead is the head batcher, run by the entry stage's dispatcher:
// it sequence-tags the inputs, packs them into slabs flushed on grain
// or linger, and submits each slab as one task. This is the only place
// batches are formed, so it is the only boundary where an item ever
// waits. It returns the number of batches submitted.
func (p *Pipeline) packHead(ctx context.Context, inputs <-chan any, submit func(*batch)) int {
	seq, idx := 0, 0
	var cur *batch
	// The linger timer is created on the first partial batch, so a
	// grain-1 pipeline never arms or allocates it.
	var timer *time.Timer
	var timerC <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	flush := func(eager bool) {
		cur.eager = eager
		submit(cur)
		cur = nil
		timerC = nil
		idx++
	}
	for {
		select {
		case v, ok := <-inputs:
			if !ok {
				if cur != nil {
					flush(true)
				}
				return idx
			}
			if seq == 0 {
				// Receiving the first input readied its sender into this
				// P's runnext slot; the first submit would wake an
				// executor worker into that slot instead and push the
				// sender to the back of the run queue. Yielding once
				// lets the feeder resume first, so the run accepts its
				// first input without a scheduling round trip.
				runtime.Gosched()
			}
			if cur == nil {
				cur = newBatch(idx, seq)
			}
			cur.items = append(cur.items, v)
			seq++
			if len(cur.items) >= int(p.headGrain()) {
				if timerC != nil {
					timer.Stop()
				}
				// A grain-full flush with nothing else queued may be
				// the last traffic for a while; marking it eager lets
				// coarsening downstream boundaries drain instead of
				// parking its items until the next input burst.
				flush(len(inputs) == 0)
			} else if timerC == nil {
				// The linger clock anchors to the slab's oldest item.
				d := time.Duration(p.linger.Load())
				if timer == nil {
					timer = time.NewTimer(d)
				} else {
					timer.Reset(d)
				}
				timerC = timer.C
			}
		case <-timerC:
			flush(true)
		case <-ctx.Done():
			if cur != nil {
				releaseBatch(cur)
			}
			return idx
		}
	}
}

// batchSink owns a stage's out-edge: the stage's drainer hands it each
// batch in index order, and it sends the batch downstream — or, at the
// exit stage, sends the batch's items to the caller's result channel.
//
// When the stage's out-edge is a regraining boundary (EnableBatchEdges
// on a bridge edge), the sink additionally re-slabs the ordered stream
// to the edge's own grain: items of each in-order batch are appended
// to an accumulator that flushes whenever it reaches the edge grain,
// when an eager batch passes (linger/end-of-input pressure propagated
// from the head), and at stream close (flushTail). The re-slabbed
// stream gets fresh contiguous indices, so the downstream reorder ring
// sees exactly the 0,1,2,… it requires.
type batchSink struct {
	ctx     context.Context
	out     chan<- *batch // downstream edge (nil at the exit stage)
	results chan<- any    // the caller's result channel (exit stage only)
	grain   *atomic.Int64 // non-nil: re-slab to this edge grain
	acc     *batch        // regrain accumulator
	nextIdx int           // next re-slabbed batch index on this edge
	nextSeq int           // first sequence number of the next re-slabbed batch
	// dead latches after the first in-order send lost to cancellation:
	// a select with both the send and ctx.Done ready picks randomly, so
	// without the latch a sink could drop batch N yet deliver N+1 —
	// cancellation must truncate the ordered stream, never puncture it.
	dead bool
}

// emit hands one in-order batch on and owns it either way; once the
// sink is dead it only releases it.
func (s *batchSink) emit(nb *batch) {
	if s.dead {
		releaseBatch(nb)
		return
	}
	if !s.deliver(nb) {
		s.dead = true
	}
}

// deliver sends nb downstream, unpacks it into the result channel, or
// folds it into the re-slab accumulator; false means the context
// cancelled mid-send.
func (s *batchSink) deliver(nb *batch) bool {
	switch {
	case s.results != nil:
		for _, v := range nb.items {
			select {
			case s.results <- v:
			case <-s.ctx.Done():
				releaseBatch(nb)
				return false
			}
		}
		releaseBatch(nb)
		return true
	case s.grain != nil:
		return s.regrain(nb)
	}
	select {
	case s.out <- nb:
		return true
	case <-s.ctx.Done():
		releaseBatch(nb)
		return false
	}
}

// regrain folds one in-order batch into the accumulator, flushing at
// the edge grain and on eager pressure; false means the context
// cancelled mid-send.
func (s *batchSink) regrain(nb *batch) bool {
	tgt := int(s.grain.Load())
	if tgt < 1 {
		tgt = 1
	}
	eager := nb.eager
	for _, v := range nb.items {
		if s.acc == nil {
			s.acc = newBatch(s.nextIdx, s.nextSeq)
		}
		s.acc.items = append(s.acc.items, v)
		if len(s.acc.items) >= tgt {
			if !s.flushAcc(eager) {
				releaseBatch(nb)
				return false
			}
		}
	}
	releaseBatch(nb)
	if eager && s.acc != nil {
		return s.flushAcc(true)
	}
	return true
}

// flushAcc emits the accumulator downstream.
func (s *batchSink) flushAcc(eager bool) bool {
	s.acc.eager = eager
	s.nextIdx++
	s.nextSeq += len(s.acc.items)
	b := s.acc
	s.acc = nil
	select {
	case s.out <- b:
		return true
	case <-s.ctx.Done():
		releaseBatch(b)
		return false
	}
}

// flushTail drains a partial accumulator at stream close, so an item
// count not divisible by the edge grain still delivers every item. A
// dead sink drops the tail instead — it already truncated the stream.
func (s *batchSink) flushTail() {
	if s.acc == nil {
		return
	}
	if s.dead {
		releaseBatch(s.acc)
		s.acc = nil
		return
	}
	if !s.flushAcc(true) {
		s.dead = true
	}
}

// stageRun is one stage's state for one run. Its dispatcher goroutine
// (dispatch, or packInputs at the entry stage) submits each input
// batch as one task on the shared work-stealing executor — one limiter
// acquire, one handoff, and one reorder operation per batch — and the
// task applies the stage function to the batch's items in sequence
// order.
//
// Executor tasks never block: with a shared worker set a task stuck in
// a channel send can occupy the worker that would have run the
// downstream task draining that very channel (on a 1-worker set this
// deadlocks outright). So a processed batch lands in the taskSink
// ring, and the stage's drainer goroutine (drain), which may block
// freely, owns the ordered (and possibly re-slabbing or unpacking)
// sends plus the limiter release. Releasing only on downstream accept
// keeps end-to-end backpressure: at most Replicas batches sit
// computed-but-undelivered per stage.
type stageRun struct {
	ctx    context.Context
	lim    *conc.Limiter
	sink   batchSink
	tasks  taskSink
	submit func(*batch)
}

// newStageRun builds stage i's run state: sinks, task, and submit.
// arrival keys the task ring by completion order (the unordered exit).
func (p *Pipeline) newStageRun(ctx context.Context, i int, sink batchSink, arrival bool, fail func(error)) *stageRun {
	st := &stageRun{
		ctx:   ctx,
		lim:   p.limits[i],
		sink:  sink,
		tasks: taskSink{arrival: arrival, total: -1, notify: make(chan struct{}, 1)},
	}
	met := p.meters[i]
	fn := p.stages[i].Fn
	name := p.stages[i].Name
	ex := p.executor()
	// The pooled slab itself is the task argument, so submission boxes
	// nothing.
	task := func(arg any) {
		b := arg.(*batch)
		idx := b.idx
		ob := newBatch(idx, b.seq)
		ob.eager = b.eager
		t0 := time.Now()
		err := applyStage(ctx, fn, name, b, ob)
		releaseBatch(b)
		if err != nil {
			fail(err)
			releaseBatch(ob)
			// A tombstone keeps the sequence gap-free so the drainer
			// can keep releasing in-flight tokens while the
			// cancellation unwinds.
			st.tasks.put(idx, nil)
			return
		}
		met.RecordN(int64(len(ob.items)), time.Since(t0))
		st.tasks.put(idx, ob)
	}
	lim := st.lim
	st.submit = func(b *batch) {
		lim.Acquire()
		ex.Submit(steal.Task{Fn: task, Arg: b})
	}
	return st
}

// packInputs is the entry stage's dispatcher: it batches the caller's
// inputs straight into tasks.
func (st *stageRun) packInputs(p *Pipeline, inputs <-chan any, wg *sync.WaitGroup) {
	defer wg.Done()
	st.tasks.close(p.packHead(st.ctx, inputs, st.submit))
}

// dispatch is an inner stage's dispatcher: it submits each batch from
// the stage's in-edge as a task.
func (st *stageRun) dispatch(in <-chan *batch, wg *sync.WaitGroup) {
	defer wg.Done()
	n := 0
	for {
		select {
		case b, ok := <-in:
			if !ok {
				st.tasks.close(n)
				return
			}
			st.submit(b)
			n++
		case <-st.ctx.Done():
			st.tasks.close(n)
			return
		}
	}
}

// drain hands the stage's finished batches on in order (nil is a
// failed task's tombstone) and frees each batch's limiter token once
// the batch is accepted downstream.
func (st *stageRun) drain(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		ob, ok := st.tasks.next()
		if !ok {
			break
		}
		if ob != nil {
			st.sink.emit(ob)
		}
		st.lim.Release()
	}
	if st.sink.out != nil {
		st.sink.flushTail()
		close(st.sink.out)
	}
}

// applyStage appends fn's result for each item of b to ob, in sequence
// order. A panic in fn is recovered into an error carrying the stack,
// so a bad item fails its run instead of unwinding a worker of the
// process-wide executor that other pipelines share.
func applyStage(ctx context.Context, fn Func, name string, b, ob *batch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: stage %s item %d: panic: %v\n%s", name, b.seq+len(ob.items), r, debug.Stack())
		}
	}()
	for k, v := range b.items {
		res, ferr := fn(ctx, v)
		if ferr != nil {
			return fmt.Errorf("pipeline: stage %s item %d: %w", name, b.seq+k, ferr)
		}
		ob.items = append(ob.items, res)
	}
	return nil
}

// fanIn merges the in-streams of a fan-in stage batch-wise.
// Batches are formed once at the head and preserved 1-for-1 by every
// stage, so the k-th batch of every in-stream has the same index,
// first sequence number, and length; the join reads one batch per
// stream in lockstep and emits a batch of []any part vectors.
func fanIn(ctx context.Context, ins []<-chan *batch, out chan<- *batch, wg *sync.WaitGroup, fail func(error)) {
	defer wg.Done()
	defer close(out)
	for {
		var ob *batch
		for k, ch := range ins {
			select {
			case b, ok := <-ch:
				if !ok {
					// Streams carry identical batch sequences; the first
					// to close ends the join.
					if ob != nil {
						releaseBatch(ob)
					}
					return
				}
				if ob == nil {
					ob = newBatch(b.idx, b.seq)
					ob.eager = b.eager
					for range b.items {
						ob.items = append(ob.items, make([]any, len(ins)))
					}
				} else if b.idx != ob.idx || len(b.items) != len(ob.items) {
					fail(fmt.Errorf("pipeline: fan-in batch skew (batch %d vs %d, %d vs %d items)",
						b.idx, ob.idx, len(b.items), len(ob.items)))
					releaseBatch(b)
					releaseBatch(ob)
					return
				}
				for j, v := range b.items {
					ob.items[j].([]any)[k] = v
				}
				releaseBatch(b)
			case <-ctx.Done():
				if ob != nil {
					releaseBatch(ob)
				}
				return
			}
		}
		select {
		case out <- ob:
		case <-ctx.Done():
			releaseBatch(ob)
			return
		}
	}
}

// fanOut fans a split stage's batch stream onto every
// out-edge. The slab is shared, not copied: the reference count grows
// by one per extra consumer and each downstream stage releases its
// reference after reading (no consumer mutates a batch it received).
func fanOut(ctx context.Context, in <-chan *batch, outs []chan<- *batch, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		for _, ch := range outs {
			close(ch)
		}
	}()
	for {
		var b *batch
		var ok bool
		select {
		case b, ok = <-in:
		case <-ctx.Done():
			return
		}
		if !ok {
			return
		}
		atomic.AddInt32(&b.refs, int32(len(outs)-1))
		for _, ch := range outs {
			select {
			case ch <- b:
			case <-ctx.Done():
				return
			}
		}
	}
}
