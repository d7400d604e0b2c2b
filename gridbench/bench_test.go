package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"

	"gridpipe"
)

// An injected stall in the stage must show up in the latency of every
// item that fell due while the stage stalled, and must not hold up the
// open-loop generator's schedule: that is what charging latency from
// due times (no coordinated omission) means.
func TestOpenLoopChargesStallToItemsDueDuringIt(t *testing.T) {
	const (
		n       = 300
		gap     = time.Millisecond
		stallAt = 100
		stall   = 60 * time.Millisecond
	)
	items := make([]item, n)
	c := newClock(n, 1, false)
	for i := range items {
		items[i] = item{id: i}
		c.in[i] = int64(i) * int64(gap)
	}
	fn := func(_ context.Context, v any) (any, error) {
		it := v.(*item)
		if it.id == stallAt {
			time.Sleep(stall)
		}
		return it, nil
	}
	start := func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error) {
		p, err := gridpipe.New(gridpipe.Stage("stall", fn))
		if err != nil {
			return nil, nil, err
		}
		return p.Run(ctx, in)
	}
	got := 0
	r := openLoop(context.Background(), items, c, start, nil, func(pos int, it *item) {
		if it.id != pos {
			t.Errorf("output %d is item %d", pos, it.id)
		}
		got++
	})
	if r.err != nil || got != n {
		t.Fatalf("open loop: err %v, %d of %d outputs", r.err, got, n)
	}
	stallEnd := c.in[stallAt] + int64(stall)
	during := 0
	for i := stallAt; i < n && c.in[i] < stallEnd; i++ {
		during++
		if lat, min := c.out[i]-c.in[i], stallEnd-c.in[i]; lat < min {
			t.Errorf("item %d fell due %v into the stall: latency %v, want at least %v",
				i, time.Duration(c.in[i]-c.in[stallAt]), time.Duration(lat), time.Duration(min))
		}
		if lag := time.Duration(r.lag[i] * 1e3); lag > stall/2 {
			t.Errorf("item %d was handed in %v late: the generator waited for the stalled stage", i, lag)
		}
	}
	if during < int(stall/gap)/2 {
		t.Fatalf("only %d items fell due during the stall", during)
	}
	var before []float64
	for i := 0; i < stallAt; i++ {
		before = append(before, us(c.out[i]-c.in[i]))
	}
	if p50 := quantile(before, 0.5); p50 > float64(stall.Microseconds())/4 {
		t.Errorf("items before the stall: median latency %.0f us, want far below the stall", p50)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 25}}, 15},
		{[][2]int64{{5, 15}, {0, 10}}, 15},
		{[][2]int64{{0, 30}, {5, 10}, {12, 20}}, 30},
	} {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gridpipe/internal/sim.(*Engine).Step":           "sim",
		"gridpipe/internal/cluster.(*Cluster).Run.func1": "cluster",
		"gridpipe/internal/conc/steal.(*Executor).run":   "steal",
		"gridpipe/internal/conc.(*Limiter).Acquire":      "pipeline",
		"gridpipe/internal/grid.(*Node).ServiceDuration": "other",
		"runtime.mallocgc":                               "go_runtime",
		"internal/runtime/atomic.(*Uint32).Load":         "go_runtime",
		"main.spin":                                      "stage_fn",
		"sync.(*Mutex).Lock":                             "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

// The profile decoder attributes a loop of the benchmark's own
// functions to them.
func TestLeafFunctionsDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink += spin(sink, 10000)
	}
	pprof.StopCPUProfile()
	leaves, err := leafFunctions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	total, own := 0, 0
	for fn, n := range leaves {
		total += n
		if layerOf(fn) == "stage_fn" {
			own += n
		}
	}
	if total == 0 {
		t.Skip("no samples taken")
	}
	if own < total/2 {
		t.Errorf("the benchmark's own functions hold %d of %d samples: %v", own, total, leaves)
	}
}
