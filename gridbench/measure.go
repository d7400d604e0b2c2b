package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// heapSampler tracks the peak heap size of a phase in the background.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64 // written by the sampler, read after done
}

// sampleEvery is the heap sampler's period: fine enough to catch a
// peak between two collections, coarse enough to cost nothing.
const sampleEvery = 2 * time.Millisecond

// startHeap collects garbage left by earlier phases, then samples the
// heap until stop.
func startHeap() *heapSampler {
	runtime.GC()
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *heapSampler) run() {
	defer close(h.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
		select {
		case <-h.stopc:
			return
		case <-t.C:
		}
	}
}

// stop ends sampling and returns the peak heap size in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// usage is what one measured section cost: wall time, process CPU time
// (getrusage user+sys) and heap allocations (MemStats.Mallocs).
type usage struct {
	wall, cpu time.Duration
	mallocs   uint64
}

type section struct {
	t0       time.Time
	cpu0     time.Duration
	mallocs0 uint64
}

func beginSection() section {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return section{mallocs0: ms.Mallocs, cpu0: processCPU(), t0: time.Now()}
}

func (s section) end() usage {
	u := usage{wall: time.Since(s.t0), cpu: processCPU() - s.cpu0}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs - s.mallocs0
	return u
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place); NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// histogram counts samples (µs) in logarithmic buckets 0.5% wide, so a
// run of any length keeps its distribution in constant memory and the
// benchmark's own bookkeeping does not grow the heap it measures.
type histogram struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histLo      = 1e-3 // µs; smaller samples land in the first bucket
	histGrowth  = 1.005
	histBuckets = 6000 // up to histLo·histGrowth^histBuckets ≈ 10^10 µs
)

var logGrowth = math.Log(histGrowth)

func (h *histogram) add(v float64) {
	b := 0
	if v > histLo {
		b = min(int(math.Log(v/histLo)/logGrowth), histBuckets-1)
	}
	h.counts[b]++
	h.n++
}

// quantile interpolates the q-quantile by rank inside its bucket; NaN
// when h is empty.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var below int64
	for b, c := range h.counts {
		if c > 0 && float64(below+c) > rank {
			lo := histLo * math.Pow(histGrowth, float64(b))
			return lo + lo*(histGrowth-1)*(rank-float64(below)+0.5)/float64(c)
		}
		below += c
	}
	return histLo * math.Pow(histGrowth, histBuckets)
}

// clock timestamps one round's items: hand-in and output per item and,
// when traced, the start and end of every stage function per item. All
// values are nanoseconds since base. Each slot is written by exactly one
// goroutine and read only after the round's output has drained.
type clock struct {
	base    time.Time
	in, out []int64
	st, en  [][]int64 // [stage][item]; nil when untraced
}

func newClock(items, stages int, traced bool) *clock {
	c := &clock{base: time.Now(), in: make([]int64, items), out: make([]int64, items)}
	if traced {
		c.st = make([][]int64, stages)
		c.en = make([][]int64, stages)
		for s := range c.st {
			c.st[s] = make([]int64, items)
			c.en[s] = make([]int64, items)
		}
	}
	return c
}

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// reset rebases the clock for a new round over the same item slots.
func (c *clock) reset() {
	c.base = time.Now()
	clear(c.in)
	clear(c.out)
	for s := range c.st {
		clear(c.st[s])
		clear(c.en[s])
	}
}

// unionLen is the total length covered by the intervals (sorted in
// place by start).
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// span is one recorded interval: a call into a layer's public API made
// by the benchmark, or one stage function's run on one item. Spans of
// one item share Item (-1 for spans that belong to no item); Parent is
// the ID of the enclosing span (0 for a root).
type span struct {
	ID, Parent, Item int64
	Name             string
	Start, End       int64 // ns since the tracer's base
}

// tracer keeps spans in memory; write dumps them at the end of the run.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span named name under parent; its ID is known at once,
// so calls made inside it can name it as their parent.
func (t *tracer) begin(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{t: t, s: span{ID: id, Parent: parent, Item: -1, Name: name, Start: int64(time.Since(t.base))}}
}

// id is the span's ID (0 when untraced).
func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.base))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// call runs fn inside a span named name under parent.
func (t *tracer) call(name string, parent int64, fn func()) {
	sp := t.begin(name, parent)
	fn()
	sp.end()
}

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	return s.ID
}

// maxItemSpansWritten caps the per-item spans a run writes out, so a
// fine-grained workload's trace file stays a few megabytes; every API
// span is always written.
const maxItemSpansWritten = 100000

// itemSpans converts one traced round into spans: an "item" root from
// hand-in to output and one child per stage function. names[s] labels
// stage s. base is the tracer time of the clock's base.
func (t *tracer) itemSpans(c *clock, names []string, parent, firstItem int64) {
	if t == nil || c.st == nil {
		return
	}
	off := int64(c.base.Sub(t.base))
	for i := range c.in {
		t.mu.Lock()
		full := len(t.spans) >= maxItemSpansWritten
		t.mu.Unlock()
		if full {
			return
		}
		item := firstItem + int64(i)
		root := t.add(span{Parent: parent, Item: item, Name: "item", Start: off + c.in[i], End: off + c.out[i]})
		for s, name := range names {
			t.add(span{Parent: root, Item: item, Name: name, Start: off + c.st[s][i], End: off + c.en[s][i]})
		}
	}
}

// write dumps the spans as CSV under dir, preceded by comment lines
// describing the run.
func (t *tracer) write(dir, file string, header []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, h := range header {
		fmt.Fprintf(w, "# %s\n", h)
	}
	fmt.Fprintln(w, "id,parent,item,name,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Item, s.Name, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
