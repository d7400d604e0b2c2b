package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gridpipe"
	"gridpipe/internal/conc/steal"
	"gridpipe/internal/pipeline"
)

// item is one unit of work on the live workloads. Items travel as
// pointers, so handing one to a stage boxes nothing; each stage writes
// its result into its own field, which lets the two branches of a split
// work on one item at once.
type item struct {
	id         int
	x, a, b, y uint64
}

func itemOf(v any) *item {
	if parts, ok := v.([]any); ok { // a merge stage's input
		return parts[0].(*item)
	}
	return v.(*item)
}

// mix is splitmix64's finaliser: a few nanoseconds of dependent
// arithmetic the compiler cannot fold away.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// spin is n rounds of mix: CPU work whose cost is a fixed number of
// operations, not a fixed time, so every machine does the same work.
func spin(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x = mix(x + uint64(i))
	}
	return x
}

// inputValue is item i's input in one round of a seeded workload.
func inputValue(seed uint64, round, i int) uint64 {
	return mix(seed*0x9e3779b97f4a7c15 ^ uint64(round)<<32 ^ uint64(i))
}

// stageDef is one live stage as the benchmark builds it: its function,
// the replica count it starts with, and its predecessors in the stage
// graph (flattened declaration order, as gridpipe numbers stages).
type stageDef struct {
	name     string
	fn       gridpipe.StageFunc
	replicas int
	preds    []int
	cpu      bool // the function burns CPU (false: it blocks)
	// replicable lets the stage run several workers and lets the live
	// controller resize it.
	replicable bool
	// weight is the stage's nominal cost relative to the others, which
	// the live controller's imbalance trigger normalises by (0: unset).
	weight float64
}

// timed wraps stage s's function so a traced round records when it
// starts and ends on each item; untraced rounds run fn unwrapped.
func timed(fn gridpipe.StageFunc, c *clock, s int) gridpipe.StageFunc {
	if c.st == nil {
		return fn
	}
	st, en := c.st[s], c.en[s]
	return func(ctx context.Context, v any) (any, error) {
		id := itemOf(v).id
		st[id] = c.now()
		r, err := fn(ctx, v)
		en[id] = c.now()
		return r, err
	}
}

// starter builds and starts a skeleton over an input channel.
type starter func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error)

// roundResult is one closed-loop round.
type roundResult struct {
	setup time.Duration // construction until the first input is accepted
	wall  time.Duration // first hand-in until the last output
	usage usage
	got   int
	err   error
}

// closedRound builds a skeleton with start, hands it the items as fast
// as it accepts them (its bounded input buffer closes the loop: one
// feeding client), and passes every output to onOut in arrival order.
func closedRound(ctx context.Context, items []item, c *clock, start starter, onOut func(pos int, it *item)) roundResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.reset()
	in := make(chan any)
	sec := beginSection()
	t0 := time.Now()
	out, errs, err := start(ctx, in)
	if err != nil {
		return roundResult{err: err}
	}
	accepted := make(chan time.Time, 1) // the feeder's one report, never blocks it
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(in)
		for i := range items {
			c.in[i] = c.now()
			select {
			case in <- &items[i]:
			case <-ctx.Done():
				return
			}
			if i == 0 {
				accepted <- time.Now()
			}
		}
	}()
	var r roundResult
	var last int64
	for v := range out {
		it := v.(*item)
		last = c.now()
		c.out[it.id] = last
		onOut(r.got, it)
		r.got++
	}
	for e := range errs {
		if r.err == nil {
			r.err = e
		}
	}
	r.usage = sec.end()
	cancel()
	wg.Wait()
	select {
	case t := <-accepted:
		r.setup = t.Sub(t0)
	default:
		r.setup = time.Since(t0)
	}
	r.wall = time.Duration(last - c.in[0])
	return r
}

// orderedCheck counts, for an ordered skeleton, outputs that are out of
// order, duplicated or wrong; missing ones are counted after the round.
type orderedCheck struct {
	ref      []uint64
	seen, ok []bool // ok: delivered once, in order, with the reference value
	bad      int64
}

func newOrderedCheck(ref []uint64) *orderedCheck {
	return &orderedCheck{ref: ref, seen: make([]bool, len(ref)), ok: make([]bool, len(ref))}
}

func (k *orderedCheck) reset() {
	clear(k.seen)
	clear(k.ok)
	k.bad = 0
}

func (k *orderedCheck) check(pos int, it *item, got uint64) {
	good := it.id == pos && !k.seen[it.id] && got == k.ref[it.id]
	if !good {
		k.bad++
	}
	k.seen[it.id] = true
	k.ok[it.id] = good
}

// unorderedCheck compares a farm's outputs with the reference as a
// multiset: every item exactly once, each with its reference value.
type unorderedCheck struct {
	ref  []uint64
	seen []bool
	bad  int64
}

func (k *unorderedCheck) check(_ int, it *item, got uint64) {
	if k.seen[it.id] || got != k.ref[it.id] {
		k.bad++
	}
	k.seen[it.id] = true
}

// liveTrace accumulates the per-layer measurements of traced rounds of
// one pipeline: per-item boundary waits from the stage spans, stage
// busy time, and the pipeline's self time per item (the item's span
// minus the union of its stage-function spans).
type liveTrace struct {
	stages                          []stageDef
	headWait, handoff, hold, selfUS histogram
	fnTime                          []time.Duration
	cpuFnTime                       time.Duration
	wall                            time.Duration
	cpu                             time.Duration
	items                           int64
}

func newLiveTrace(stages []stageDef) *liveTrace {
	return &liveTrace{stages: stages, fnTime: make([]time.Duration, len(stages))}
}

func (lt *liveTrace) addRound(c *clock, r roundResult) {
	if c.st == nil {
		return
	}
	last := len(lt.stages) - 1
	iv := make([][2]int64, len(lt.stages))
	for i := range c.in {
		lt.headWait.add(us(c.st[0][i] - c.in[i]))
		for s, sd := range lt.stages {
			d := c.en[s][i] - c.st[s][i]
			lt.fnTime[s] += time.Duration(d)
			if sd.cpu {
				lt.cpuFnTime += time.Duration(d)
			}
			iv[s] = [2]int64{c.st[s][i], c.en[s][i]}
			if len(sd.preds) == 0 {
				continue
			}
			ready := int64(0)
			for _, p := range sd.preds {
				ready = max(ready, c.en[p][i])
			}
			lt.handoff.add(us(c.st[s][i] - ready))
		}
		lt.hold.add(us(c.out[i] - c.en[last][i]))
		lt.selfUS.add(us(c.out[i] - c.in[i] - unionLen(iv)))
	}
	lt.wall += r.wall
	lt.cpu += r.usage.cpu
	lt.items += int64(len(c.in))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// metrics writes the pipeline.* per-layer metrics.
func (lt *liveTrace) metrics(layer map[string]float64) {
	if lt.items == 0 {
		return
	}
	layer["pipeline.head_wait_us_p50"] = lt.headWait.quantile(0.5)
	layer["pipeline.head_wait_us_p99"] = lt.headWait.quantile(0.99)
	layer["pipeline.handoff_us_p50"] = lt.handoff.quantile(0.5)
	layer["pipeline.handoff_us_p99"] = lt.handoff.quantile(0.99)
	layer["pipeline.reorder_hold_us_p50"] = lt.hold.quantile(0.5)
	layer["pipeline.reorder_hold_us_p99"] = lt.hold.quantile(0.99)
	layer["pipeline.self_us_p50"] = lt.selfUS.quantile(0.5)
	layer["pipeline.non_fn_cpu_us_per_item"] = float64(lt.cpu-lt.cpuFnTime) / 1e3 / float64(lt.items)
	// Busy fractions count CPU-bound stages only: a blocking stage's
	// function time is waiting, not work.
	procs := runtime.GOMAXPROCS(0)
	bottleneck := 0.0
	for s, sd := range lt.stages {
		if sd.cpu {
			width := min(sd.replicas, procs)
			bottleneck = max(bottleneck, float64(lt.fnTime[s])/float64(lt.wall)/float64(width))
		}
	}
	layer["pipeline.fn_busy_frac"] = float64(lt.cpuFnTime) / float64(lt.wall) / float64(procs)
	layer["pipeline.bottleneck_busy_frac"] = bottleneck
}

// stealDelta writes the steal.* per-layer metrics: the process-wide
// executor's counters over the phase, per completed item.
func stealDelta(layer map[string]float64, before, after steal.Stats, items int64) {
	n := float64(items)
	layer["steal.injects_per_item"] = float64(after.Injects-before.Injects) / n
	layer["steal.grabbed_per_item"] = float64(after.Grabbed-before.Grabbed) / n
	layer["steal.pops_per_item"] = float64(after.Pops-before.Pops) / n
	layer["steal.steals_per_item"] = float64(after.Steals-before.Steals) / n
	layer["steal.parks_per_item"] = float64(after.Parks-before.Parks) / n
	layer["steal.spills"] = float64(after.Spills - before.Spills)
}

// buildPipeline turns stage definitions into a gridpipe pipeline. Chains
// are built stage after stage; the one DAG shape used here (a stage, a
// split into single-stage branches, a merge) is recognised by its
// predecessor lists.
func buildPipeline(stages []stageDef, fns []gridpipe.StageFunc) (*gridpipe.Pipeline, error) {
	def := func(s int) gridpipe.StageDef {
		opts := []gridpipe.StageOpt{gridpipe.Replicas(stages[s].replicas)}
		if stages[s].replicable {
			opts = append(opts, gridpipe.Replicable())
		}
		if stages[s].weight > 0 {
			opts = append(opts, gridpipe.Weight(stages[s].weight))
		}
		if len(stages[s].preds) > 1 {
			return gridpipe.Merge(stages[s].name, fns[s], opts...)
		}
		return gridpipe.Stage(stages[s].name, fns[s], opts...)
	}
	last := len(stages) - 1
	if len(stages[last].preds) <= 1 {
		defs := make([]gridpipe.StageDef, len(stages))
		for s := range stages {
			defs[s] = def(s)
		}
		return gridpipe.New(defs...)
	}
	var branches []gridpipe.BranchDef
	for s := 1; s < last; s++ {
		branches = append(branches, gridpipe.Branch(def(s)))
	}
	return gridpipe.New(def(0), gridpipe.Split(branches...), def(last))
}

// closedPipelineRounds is the shared body of the closed-loop workloads:
// round after round until the phase's time is up, it generates the
// round's inputs from the seed, computes the reference outputs by
// calling the stage functions in a plain loop (the serial baseline), then
// pushes the same inputs through a fresh pipeline and checks its ordered
// output against the reference. extra, when non-nil, runs a second
// skeleton over the round's inputs (the farm phase of fine_grain).
type closedConfig struct {
	stages []stageDef
	items  int // per round
	grain  int // 0: unbatched
	// limit is the latency limit an ordered output must meet to count
	// towards goodput_frac.
	limit  time.Duration
	serial func(it *item)
	result func(it *item) uint64
	extra  func(ctx context.Context, round int, inputs []uint64) (roundResult, error)
}

// tailWindow is how many consecutive ordered outputs one tail
// percentile is taken over; the reported tail is the median of these
// windows' percentiles, so a short hiccup of the machine moves it little.
const tailWindow = 2000

// closedTotals is what the rounds of a closed-loop phase measured. The
// per-round series are reported as medians over the rounds, so a round
// that a neighbour on the machine slowed moves them little.
type closedTotals struct {
	items, extraItems int64
	extraWall         time.Duration
	serialItems       int64
	mallocs           uint64
	latency           histogram // every ordered output
	good              int64     // ordered outputs correct and within the limit
	genTime           time.Duration
	rounds            int

	setups, ips, cpuPerItem, speedup []float64 // per round
	p90, p99                         []float64 // per tailWindow outputs
}

func closedPipelineRounds(ctx context.Context, ph phase, cfg closedConfig, o *outcome) (*closedTotals, *liveTrace, error) {
	n := cfg.items
	items := make([]item, n)
	inputs := make([]uint64, n)
	ref := make([]uint64, n)
	c := newClock(n, len(cfg.stages), ph.traced())
	fns := make([]gridpipe.StageFunc, len(cfg.stages))
	for s, sd := range cfg.stages {
		fns[s] = timed(sd.fn, c, s)
	}
	names := make([]string, len(cfg.stages))
	for s, sd := range cfg.stages {
		names[s] = "stage:" + sd.name
	}
	chk := newOrderedCheck(ref)
	lat := make([]float64, 0, tailWindow) // one window's latencies, µs
	lt := newLiveTrace(cfg.stages)
	tot := &closedTotals{}
	until := time.Now().Add(time.Duration(ph.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(until); round++ {
		if ctx.Err() != nil {
			break
		}
		g0 := time.Now()
		for i := range inputs {
			inputs[i] = inputValue(ph.seed, round, i)
		}
		tot.genTime += time.Since(g0)

		s0 := time.Now()
		for i := range items {
			items[i] = item{id: i, x: inputs[i]}
			cfg.serial(&items[i])
			ref[i] = cfg.result(&items[i])
		}
		serialIPS := float64(n) / time.Since(s0).Seconds()
		tot.serialItems += int64(n)

		for i := range items {
			items[i] = item{id: i, x: inputs[i]}
		}
		chk.reset()
		var p *gridpipe.Pipeline
		start := func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error) {
			var err error
			ph.tr.call("pipeline.New", 0, func() {
				p, err = buildPipeline(cfg.stages, fns)
				if err == nil && cfg.grain > 0 {
					err = p.WithBatch(cfg.grain)
				}
			})
			if err != nil {
				return nil, nil, err
			}
			var out <-chan any
			var errs <-chan error
			ph.tr.call("pipeline.Run", 0, func() { out, errs, err = p.Run(ctx, in) })
			return out, errs, err
		}
		rr := closedRound(ctx, items, c, start, func(pos int, it *item) { chk.check(pos, it, cfg.result(it)) })
		if rr.err != nil {
			o.fail(int64(n-rr.got), "round %d: pipeline error: %v", round, rr.err)
		}
		o.attempted += int64(n)
		o.fail(chk.bad, "round %d: outputs out of order, duplicated or wrong", round)
		o.fail(int64(n-countTrue(chk.seen)), "round %d: outputs missing", round)
		for s, st := range pipelineStats(p) {
			if st.Count != n {
				o.note("round %d: LiveStats stage %d counted %d of %d items", round, s, st.Count, n)
			}
		}
		tot.items += int64(rr.got)
		tot.mallocs += rr.usage.mallocs
		setup, wall, cpu, got := rr.setup, rr.wall, rr.usage.cpu, rr.got
		lat = lat[:0]
		for i := range c.in {
			if i%tailWindow == 0 && len(lat) > 0 && n-i >= tailWindow { // a short tail joins the last window
				tot.p90 = append(tot.p90, quantile(lat, 0.90))
				tot.p99 = append(tot.p99, quantile(lat, 0.99))
				lat = lat[:0]
			}
			if !chk.seen[i] {
				continue
			}
			l := c.out[i] - c.in[i]
			lat = append(lat, us(l))
			tot.latency.add(us(l))
			if chk.ok[i] && l <= int64(cfg.limit) {
				tot.good++
			}
		}
		tot.p90 = append(tot.p90, quantile(lat, 0.90))
		tot.p99 = append(tot.p99, quantile(lat, 0.99))
		lt.addRound(c, rr)
		ph.tr.itemSpans(c, names, 0, int64(round)*int64(n))

		if cfg.extra != nil {
			er, err := cfg.extra(ctx, round, inputs)
			if err != nil {
				return nil, nil, err
			}
			tot.extraItems += int64(er.got)
			tot.extraWall += er.wall
			tot.mallocs += er.usage.mallocs
			setup += er.setup
			wall += er.wall
			cpu += er.usage.cpu
			got += er.got
		}
		ips := float64(got) / wall.Seconds()
		tot.setups = append(tot.setups, setup.Seconds())
		tot.ips = append(tot.ips, ips)
		tot.cpuPerItem = append(tot.cpuPerItem, float64(cpu)/1e3/float64(got))
		tot.speedup = append(tot.speedup, ips/serialIPS)
		tot.rounds++
	}
	return tot, lt, nil
}

// pipelineStats is p.LiveStats(), or nil when the pipeline was never
// built.
func pipelineStats(p *gridpipe.Pipeline) []pipeline.StageStats {
	if p == nil {
		return nil
	}
	return p.LiveStats()
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// closedMetrics writes the end-to-end metrics of a closed-loop workload.
func closedMetrics(o *outcome, tot *closedTotals, limit time.Duration, heapPeak uint64) {
	items := tot.items + tot.extraItems
	o.e2e["items_per_s"] = median(tot.ips)
	o.e2e["setup_s"] = median(tot.setups)
	o.e2e["latency_p50_us"] = tot.latency.quantile(0.5)
	o.e2e["latency_p90_us"] = median(tot.p90)
	o.e2e["speedup_vs_serial"] = median(tot.speedup)
	o.e2e["goodput_frac"] = float64(tot.good) / float64(tot.serialItems)
	o.e2e["cpu_us_per_item"] = median(tot.cpuPerItem)
	o.setMemory(tot.mallocs, heapPeak, items)
	o.note("%d rounds, %d items (%d through the second skeleton); latency samples: %d ordered outputs, limit %v",
		tot.rounds, items, tot.extraItems, tot.latency.n, limit)
	o.note("medians over rounds: items_per_s, cpu_us_per_item, speedup_vs_serial (serial loop timed in the same round); latency_p90_us: median over windows of %d outputs",
		tailWindow)
	o.note("latency_p99_us = %.6g us (median over the same windows; not gated); over all outputs p99 %.6g us, p99.9 %.6g us",
		median(tot.p99), tot.latency.quantile(0.99), tot.latency.quantile(0.999))
}

// ---------------------------------------------------------------- fine_grain

// Stage costs of fine_grain, in rounds of mix: all well under a
// microsecond, so the boundaries do nearly all the work.
const (
	fgParse = 2
	fgMix   = 16
	fgFold  = 1
	// fgLimit is the ordered outputs' latency limit.
	fgLimit = 5 * time.Millisecond
)

var fineStages = []stageDef{
	{name: "parse", replicas: 1, cpu: true, fn: func(_ context.Context, v any) (any, error) {
		it := v.(*item)
		it.x = spin(it.x, fgParse)
		return it, nil
	}},
	{name: "mix", replicas: 2, replicable: true, preds: []int{0}, cpu: true, fn: fineMix},
	{name: "fold", replicas: 1, preds: []int{1}, cpu: true, fn: func(_ context.Context, v any) (any, error) {
		it := v.(*item)
		it.y = spin(it.x, fgFold) ^ it.x>>7
		return it, nil
	}},
}

func fineMix(_ context.Context, v any) (any, error) {
	it := v.(*item)
	it.x = spin(it.x, fgMix)
	return it, nil
}

// farmItemBase offsets the farm phase's item IDs in the written spans
// from the chain's.
const farmItemBase = 1 << 40

func fineGrain(ctx context.Context, ph phase) (*outcome, error) {
	ctx, cancel := deadline(ctx, ph)
	defer cancel()
	const n = 20000
	o := newOutcome()

	// The farm phase: the same inputs through an unordered Farm of the
	// middle stage's function, checked as a multiset.
	farmItems := make([]item, n)
	farmRef := make([]uint64, n)
	fc := newClock(n, 1, ph.traced())
	farmFn := timed(fineMix, fc, 0)
	fchk := &unorderedCheck{ref: farmRef, seen: make([]bool, n)}
	dispatch, ret := &histogram{}, &histogram{}
	var farmDone int
	extra := func(ctx context.Context, round int, inputs []uint64) (roundResult, error) {
		for i := range farmItems {
			farmRef[i] = spin(inputs[i], fgMix)
			farmItems[i] = item{id: i, x: inputs[i]}
		}
		clear(fchk.seen)
		fchk.bad = 0
		var f *gridpipe.Farm
		start := func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error) {
			var err error
			ph.tr.call("farm.NewFarm", 0, func() {
				f, err = gridpipe.NewFarm(farmFn, gridpipe.FarmOptions{Workers: 2, Unordered: true})
			})
			if err != nil {
				return nil, nil, err
			}
			var out <-chan any
			var errs <-chan error
			ph.tr.call("farm.Run", 0, func() { out, errs = f.Run(ctx, in) })
			return out, errs, nil
		}
		rr := closedRound(ctx, farmItems, fc, start, func(pos int, it *item) { fchk.check(pos, it, it.x) })
		if rr.err != nil {
			o.fail(int64(n-rr.got), "farm round %d: %v", round, rr.err)
		}
		o.attempted += n
		o.fail(fchk.bad, "farm round %d: outputs duplicated or wrong", round)
		o.fail(int64(n-countTrue(fchk.seen)), "farm round %d: outputs missing", round)
		farmDone += f.Stats().Done
		if fc.st != nil {
			for i := range fc.in {
				dispatch.add(us(fc.st[0][i] - fc.in[i]))
				ret.add(us(fc.out[i] - fc.en[0][i]))
			}
			ph.tr.itemSpans(fc, []string{"stage:farm.mix"}, 0, farmItemBase+int64(round)*n)
		}
		return rr, nil
	}

	st0 := steal.Default().Stats()
	heap := startHeap()
	tot, lt, err := closedPipelineRounds(ctx, ph, closedConfig{
		stages: fineStages,
		items:  n,
		limit:  fgLimit,
		serial: func(it *item) {
			for _, sd := range fineStages {
				sd.fn(ctx, it)
			}
		},
		result: func(it *item) uint64 { return it.y },
		extra:  extra,
	}, o)
	peak := heap.stop()
	if err != nil {
		return nil, err
	}
	st1 := steal.Default().Stats()
	closedMetrics(o, tot, fgLimit, peak)
	o.note("farm: Farm.Stats().Done summed to %d over %d items", farmDone, tot.extraItems)

	lt.metrics(o.layer)
	o.layer["farm.dispatch_us_p99"] = dispatch.quantile(0.99)
	o.layer["farm.return_us_p99"] = ret.quantile(0.99)
	o.layer["farm.items_per_s"] = float64(tot.extraItems) / tot.extraWall.Seconds()
	stealDelta(o.layer, st0, st1, tot.items+tot.extraItems)
	o.layer["workload.trace_gen_s"] = tot.genTime.Seconds()
	return o, nil
}

// ---------------------------------------------------------------- cpu_dag

// Stage costs of cpu_dag, in rounds of mix: tens of microseconds each,
// with the heavy branch replicated.
const (
	dagDecode = 1200
	dagHeavy  = 6000
	dagLight  = 1500
	dagJoin   = 600
	dagGrain  = 16
	dagLimit  = 50 * time.Millisecond
)

var dagStages = []stageDef{
	{name: "decode", replicas: 1, cpu: true, fn: func(_ context.Context, v any) (any, error) {
		it := v.(*item)
		it.x = spin(it.x, dagDecode)
		return it, nil
	}},
	{name: "heavy", replicas: 2, replicable: true, preds: []int{0}, cpu: true, fn: func(_ context.Context, v any) (any, error) {
		it := v.(*item)
		it.a = spin(it.x, dagHeavy)
		return it, nil
	}},
	{name: "light", replicas: 1, preds: []int{0}, cpu: true, fn: func(_ context.Context, v any) (any, error) {
		it := v.(*item)
		it.b = spin(^it.x, dagLight)
		return it, nil
	}},
	{name: "join", replicas: 1, preds: []int{1, 2}, cpu: true, fn: func(_ context.Context, v any) (any, error) {
		parts := v.([]any)
		a, b := parts[0].(*item), parts[1].(*item)
		if a != b {
			return nil, fmt.Errorf("join: branches carried items %d and %d", a.id, b.id)
		}
		a.y = spin(a.a^b.b, dagJoin)
		return a, nil
	}},
}

func cpuDAG(ctx context.Context, ph phase) (*outcome, error) {
	ctx, cancel := deadline(ctx, ph)
	defer cancel()
	o := newOutcome()
	st0 := steal.Default().Stats()
	heap := startHeap()
	tot, lt, err := closedPipelineRounds(ctx, ph, closedConfig{
		stages: dagStages,
		items:  2048,
		limit:  dagLimit,
		grain:  dagGrain,
		serial: func(it *item) {
			dagStages[0].fn(ctx, it)
			dagStages[1].fn(ctx, it)
			dagStages[2].fn(ctx, it)
			dagStages[3].fn(ctx, []any{it, it})
		},
		result: func(it *item) uint64 { return it.y },
	}, o)
	peak := heap.stop()
	if err != nil {
		return nil, err
	}
	st1 := steal.Default().Stats()
	closedMetrics(o, tot, dagLimit, peak)
	lt.metrics(o.layer)
	stealDelta(o.layer, st0, st1, tot.items)
	o.layer["workload.trace_gen_s"] = tot.genTime.Seconds()
	return o, nil
}
