package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gridpipe"
	"gridpipe/internal/conc/steal"
	"gridpipe/internal/workload"
)

// remote_adapt: an open loop at a fixed offered rate through
// prep → remote → post, where remote occupies a workload.Resource for
// about a millisecond per item (a grid node doing the work). Part way
// through, background load lands on the resource; the offered rate is
// then sustainable only once the live controller has added replicas.
const (
	raRate     = 400.0            // offered items per second
	raBase     = time.Millisecond // remote occupancy per item, unloaded
	raLoad     = 0.6              // background load that lands on the resource
	raReplicas = 1                // remote's replicas at start: enough before the load, too few under it
	raLimit    = 50 * raBase      // latency limit, from each item's due time
	raCPU      = 300              // prep and post cost, in rounds of mix
	// raCPUWeight is prep's and post's cost relative to remote's, so the
	// controller sees a balanced pipeline until the load lands.
	raCPUWeight = 0.005
	raProbes    = 15                     // extra set-ups measured per run
	raSerialN   = 300                    // items in the serial baseline
	tailPeriod  = 500 * time.Millisecond // latency_p90_us: median over windows of due times this long
	raInterval  = 100 * time.Millisecond // controller period
)

// openResult is one open-loop episode.
type openResult struct {
	setup time.Duration // construction until the first input is accepted
	wall  time.Duration // first due time until the last output
	usage usage
	got   int
	lag   []float64 // µs each item was handed in after its due time
	err   error
}

// openLoop builds a skeleton with start and offers it items on a fixed
// schedule: item i falls due at c.in[i] (ns after c.base). The generator
// never waits for the skeleton: it hands items to an unbounded queue at
// their due times, and a forwarder feeds the skeleton from that queue,
// absorbing its backpressure. Latency is therefore charged from each
// item's due time, including any time it queued behind a stall
// (coordinated omission cannot hide it), and the generator's own
// lateness is reported per item. onDue runs on the generator as item i
// falls due.
func openLoop(ctx context.Context, items []item, c *clock, start starter, onDue func(i int), onOut func(pos int, it *item)) openResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	in := make(chan any)
	sec := beginSection()
	t0 := time.Now()
	out, errs, err := start(ctx, in)
	if err != nil {
		return openResult{err: err}
	}
	due := append([]int64(nil), c.in...)
	c.base = time.Now()
	lag := make([]int64, len(items))
	queue := make(chan *item, len(items)) // one slot per item: the generator never blocks
	accepted := make(chan time.Time, 1)   // the forwarder's one report, never blocks it
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // generator
		defer wg.Done()
		defer close(queue)
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for i := range items {
			if d := due[i] - c.now(); d > 0 {
				timer.Reset(time.Duration(d))
				select {
				case <-timer.C:
				case <-ctx.Done():
					return
				}
			}
			lag[i] = c.now() - due[i]
			if onDue != nil {
				onDue(i)
			}
			queue <- &items[i]
		}
	}()
	go func() { // forwarder
		defer wg.Done()
		defer close(in)
		first := true
		for it := range queue {
			select {
			case in <- it:
			case <-ctx.Done():
				return
			}
			if first {
				accepted <- time.Now()
				first = false
			}
		}
	}()
	var r openResult
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
	r.wall = time.Duration(last - due[0])
	r.lag = make([]float64, len(lag))
	for i, l := range lag {
		r.lag[i] = us(l)
	}
	return r
}

func remoteStages(res *workload.Resource) []stageDef {
	return []stageDef{
		{name: "prep", replicas: 1, cpu: true, weight: raCPUWeight, fn: func(_ context.Context, v any) (any, error) {
			it := v.(*item)
			it.x = spin(it.x, raCPU)
			return it, nil
		}},
		{name: "remote", replicas: raReplicas, replicable: true, weight: 1, preds: []int{0}, fn: res.Fn(raBase.Seconds())},
		{name: "post", replicas: 1, preds: []int{1}, cpu: true, weight: raCPUWeight, fn: func(_ context.Context, v any) (any, error) {
			it := v.(*item)
			it.y = spin(it.x, raCPU) ^ it.x
			return it, nil
		}},
	}
}

func adaptivePipeline(stages []stageDef, fns []gridpipe.StageFunc) (*gridpipe.Pipeline, error) {
	p, err := buildPipeline(stages, fns)
	if err != nil {
		return nil, err
	}
	err = p.WithLiveAdaptive(gridpipe.PolicyReactive, gridpipe.LiveAdaptiveOptions{Interval: raInterval, MaxWorkers: 8})
	return p, err
}

// probeSetup times one set-up of the adaptive pipeline: construction
// until its first input is accepted. The probe item is then drained.
func probeSetup(ctx context.Context, stages []stageDef) (time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fns := make([]gridpipe.StageFunc, len(stages))
	for s, sd := range stages {
		fns[s] = sd.fn
	}
	in := make(chan any)
	t0 := time.Now()
	p, err := adaptivePipeline(stages, fns)
	if err != nil {
		return 0, err
	}
	out, errs, err := p.Run(ctx, in)
	if err != nil {
		return 0, err
	}
	in <- &item{}
	d := time.Since(t0)
	close(in)
	for range out {
	}
	for e := range errs {
		err = e
	}
	return d, err
}

func remoteAdapt(ctx context.Context, ph phase) (*outcome, error) {
	ctx, cancel := deadline(ctx, ph)
	defer cancel()
	o := newOutcome()
	res := &workload.Resource{}
	stages := remoteStages(res)

	// Inputs and their schedule, generated by the workload layer from the
	// seed: arrivals at the offered rate with gaps spread uniformly ±50%
	// around the mean. The first item is due at once; the load lands as
	// item n/3 falls due.
	span := 0.8*ph.seconds - 0.3
	n := int(raRate * span)
	onset := n / 3
	g0 := time.Now()
	arrivals, err := workload.NewArrival("uniform", raRate, ph.seed)
	if err != nil {
		return nil, err
	}
	items := make([]item, n)
	ref := make([]uint64, n)
	c := newClock(n, len(stages), ph.traced())
	t := 0.0
	for i := range items {
		if i > 0 {
			t += arrivals.Next()
		}
		c.in[i] = int64(t * 1e9)
		items[i] = item{id: i, x: inputValue(ph.seed, 0, i)}
	}
	genTime := time.Since(g0)

	// Serial baseline and reference: the same stage functions in a
	// plain loop, over an unloaded resource of their own.
	serialStages := remoteStages(&workload.Resource{})
	var serialTimes []float64
	for i := range items {
		it := items[i]
		s0 := time.Now()
		for s, sd := range serialStages {
			if s == 1 && i >= raSerialN {
				continue // the reference needs no occupancy; only the timed prefix pays it
			}
			sd.fn(ctx, &it)
		}
		if i < raSerialN {
			serialTimes = append(serialTimes, time.Since(s0).Seconds())
		}
		ref[i] = it.y
	}
	serialIPS := 1 / median(serialTimes)

	var setups []float64
	for k := 0; k < raProbes; k++ {
		d, err := probeSetup(ctx, remoteStages(&workload.Resource{}))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	fns := make([]gridpipe.StageFunc, len(stages))
	names := make([]string, len(stages))
	for s, sd := range stages {
		fns[s] = timed(sd.fn, c, s)
		names[s] = "stage:" + sd.name
	}
	var p *gridpipe.Pipeline
	var runAt time.Time
	start := func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error) {
		var err error
		ph.tr.call("pipeline.New", 0, func() { p, err = adaptivePipeline(stages, fns) })
		if err != nil {
			return nil, nil, err
		}
		var out <-chan any
		var errs <-chan error
		runAt = time.Now()
		ph.tr.call("pipeline.Run", 0, func() { out, errs, err = p.Run(ctx, in) })
		return out, errs, err
	}
	var onsetAt int64
	onDue := func(i int) {
		if i == onset {
			res.SetLoad(raLoad)
			onsetAt = c.now()
		}
	}
	chk := newOrderedCheck(ref)
	st0 := steal.Default().Stats()
	heap := startHeap()
	r := openLoop(ctx, items, c, start, onDue, func(pos int, it *item) { chk.check(pos, it, it.y) })
	peak := heap.stop()
	st1 := steal.Default().Stats()
	if p == nil {
		return nil, fmt.Errorf("remote_adapt: %w", r.err)
	}
	if r.err != nil {
		o.fail(int64(n-r.got), "pipeline error: %v", r.err)
	}
	o.attempted = int64(n)
	o.fail(chk.bad, "outputs out of order, duplicated or wrong")
	o.fail(int64(n-countTrue(chk.seen)), "outputs missing")
	setups = append(setups, r.setup.Seconds())

	// Latency from due time; goodput counts items delivered correctly
	// within the limit (a missing item misses it).
	lat := make([]float64, 0, n)
	// The tail percentiles are medians over half-second windows of due
	// times of each window's percentile, so a short hiccup of the machine
	// moves them little.
	var window, windowP90, windowP99 []float64
	good := 0
	for i := range items {
		if i > 0 && c.in[i]/int64(tailPeriod) != c.in[i-1]/int64(tailPeriod) {
			windowP90 = append(windowP90, quantile(window, 0.90))
			windowP99 = append(windowP99, quantile(window, 0.99))
			window = window[:0]
		}
		if !chk.seen[i] {
			continue
		}
		l := c.out[i] - c.in[i]
		lat = append(lat, us(l))
		window = append(window, us(l))
		if l <= int64(raLimit) && chk.ok[i] {
			good++
		}
	}
	var before, after []float64
	for i := range items {
		if chk.seen[i] {
			if l := us(c.out[i] - c.in[i]); i < onset {
				before = append(before, l)
			} else {
				after = append(after, l)
			}
		}
	}
	o.note("latency p50/p99 before the load %.6g/%.6g us, after %.6g/%.6g us",
		quantile(before, 0.5), quantile(before, 0.99), quantile(after, 0.5), quantile(after, 0.99))
	ips := float64(r.got) / r.wall.Seconds()
	o.e2e["items_per_s"] = ips
	o.e2e["setup_s"] = median(setups)
	o.e2e["latency_p50_us"] = quantile(lat, 0.5)
	windowP90 = append(windowP90, quantile(window, 0.90))
	windowP99 = append(windowP99, quantile(window, 0.99))
	o.e2e["latency_p90_us"] = median(windowP90)
	o.note("latency_p99_us = %.6g us (median over the same %d windows; not gated); over all items p99 %.6g us, p99.9 %.6g us",
		median(windowP99), len(windowP99), quantile(lat, 0.99), quantile(lat, 0.999))
	o.e2e["goodput_frac"] = float64(good) / float64(n)
	o.e2e["speedup_vs_serial"] = ips / serialIPS
	o.e2e["cpu_us_per_item"] = float64(r.usage.cpu) / 1e3 / float64(r.got)
	o.setMemory(r.usage.mallocs, peak, int64(r.got))
	o.note("offered %.0f items/s for %.2f s: %d items, load %.2f from item %d, latency limit %v; latency samples: %d",
		raRate, span, n, raLoad, onset, raLimit, len(lat))
	o.note("serial baseline: %.6g items/s (median item time over %d items); generator lateness p50/p99 %.6g/%.6g us",
		serialIPS, raSerialN, quantile(r.lag, 0.5), quantile(r.lag, 0.99))

	// The controller's resizes relative to the load's onset, signed: a
	// negative value means the controller acted before the load landed
	// (it reacted to the start-up under-provisioning instead).
	rep := p.LiveAdaptiveReport()
	off := runAt.Sub(c.base).Nanoseconds() // controller epoch on the clock (≈ construction)
	var react, settle float64
	for k, ev := range rep.Events {
		at := float64(off+int64(ev.Time*1e9)-onsetAt) / 1e9
		if k == 0 {
			react = at
		}
		settle = at
	}
	o.note("controller: %d ticks, %d searches, %d resizes, final replicas %v", rep.Ticks, rep.Searches, rep.Resizes, rep.Replicas)
	for _, ev := range rep.Events {
		o.note("  resize at %.3fs (load at %.3fs): %s -> %s", float64(off)/1e9+ev.Time, float64(onsetAt)/1e9, ev.From, ev.To)
	}

	lt := newLiveTrace(stages)
	lt.addRound(c, roundResult{wall: r.wall, usage: r.usage})
	ph.tr.itemSpans(c, names, 0, 0)
	lt.metrics(o.layer)
	stealDelta(o.layer, st0, st1, int64(r.got))
	o.layer["liveadapt.ticks"] = float64(rep.Ticks)
	o.layer["liveadapt.resizes"] = float64(rep.Resizes)
	if rep.Searches > 0 {
		o.layer["liveadapt.resizes_per_search"] = float64(rep.Resizes) / float64(rep.Searches)
	}
	o.layer["liveadapt.react_s"] = react
	o.layer["liveadapt.settle_s"] = settle
	if len(rep.Replicas) > 1 {
		o.layer["liveadapt.remote_replicas_final"] = float64(rep.Replicas[1])
	}
	o.layer["workload.gen_lag_p99_us"] = quantile(r.lag, 0.99)
	o.layer["workload.trace_gen_s"] = genTime.Seconds()
	return o, nil
}
