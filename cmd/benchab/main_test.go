package main

import (
	"fmt"
	"math"
	"testing"
)

// cannedRun is gridbench's standard output for one --trace 0 run: the
// header, notes and metric listing, then the result line.
func cannedRun(attempted, failed int64, itemsPerS, p50 float64) []byte {
	return []byte(fmt.Sprintf(`gridbench workload=fine_grain seed=1 seconds=15 trace=0 nproc=2 GOMAXPROCS=2 go=go1.24.0
  feeding client: 1 in flight
  failed_frac = %g (failed %d of %d attempted)
  items_per_s                                   %g 1/s
  latency_p50_us                                %g us
{"correct":%t,"attempted":%d,"failed":%d,"metrics":{"items_per_s":{"value":%g,"unit":"1/s"},"latency_p50_us":{"value":%g,"unit":"us"}}}
`, float64(failed)/float64(attempted), failed, attempted, itemsPerS, p50,
		failed == 0, attempted, failed, itemsPerS, p50))
}

// values parses canned runs and extracts one metric per run.
func values(t *testing.T, metric string, outs ...[]byte) []float64 {
	t.Helper()
	var v []float64
	for _, out := range outs {
		r, err := parseResult(out)
		if err != nil {
			t.Fatal(err)
		}
		v = append(v, r.Metrics[metric].Value)
	}
	return v
}

var (
	throughput = metricDef{Name: "items_per_s", Better: "higher", Bound: 0.24}
	latencyP50 = metricDef{Name: "latency_p50_us", Better: "lower", Bound: 0.2}
)

func TestQuantile(t *testing.T) {
	odd := []float64{1, 2, 3, 4, 5}
	even := []float64{10, 20, 30, 40}
	cases := []struct {
		s    []float64
		q    float64
		want float64
	}{
		{odd, 0.5, 3}, {odd, 0.25, 2}, {odd, 0.75, 4}, {odd, 0, 1}, {odd, 1, 5},
		{even, 0.5, 25}, {even, 0.25, 17.5}, {even, 0.75, 32.5},
		{[]float64{7}, 0.75, 7},
	}
	for _, tc := range cases {
		if got := quantile(tc.s, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.s, tc.q, got, tc.want)
		}
	}
}

func TestParseResult(t *testing.T) {
	r, err := parseResult(cannedRun(1000, 3, 1.5e5, 76))
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 1000 || r.Failed != 3 {
		t.Fatalf("attempted/failed = %d/%d, want 1000/3", r.Attempted, r.Failed)
	}
	if r.Metrics["items_per_s"].Value != 1.5e5 || r.Metrics["latency_p50_us"].Value != 76 {
		t.Fatalf("metrics = %+v", r.Metrics)
	}
	if _, err := parseResult([]byte("gridbench workload=x\n  no result line\n")); err == nil {
		t.Fatal("output without a result line parsed")
	}
}

// Pairs where the change reads better in each metric's own direction:
// higher throughput and lower latency are both positive deltas.
func TestCompareBetterInEachDirection(t *testing.T) {
	par := [][]byte{cannedRun(100, 0, 100, 80), cannedRun(100, 0, 102, 82), cannedRun(100, 0, 98, 78), cannedRun(100, 0, 101, 81)}
	chg := [][]byte{cannedRun(100, 0, 110, 70), cannedRun(100, 0, 99, 72), cannedRun(100, 0, 108, 71), cannedRun(100, 0, 109, 83)}

	tp := compareMetric(throughput, values(t, "items_per_s", par...), values(t, "items_per_s", chg...))
	if tp.Parent != 100.5 || tp.Change != 108.5 {
		t.Fatalf("throughput medians %v/%v, want 100.5/108.5", tp.Parent, tp.Change)
	}
	if tp.Delta <= 0 || tp.Wins != 3 || tp.Pairs != 4 || tp.Verdict != "ok" {
		t.Fatalf("higher-better: %+v, want positive delta, 3/4 wins, ok", tp)
	}

	lat := compareMetric(latencyP50, values(t, "latency_p50_us", par...), values(t, "latency_p50_us", chg...))
	if want := (80.5 - 71.5) / 80.5; math.Abs(lat.Delta-want) > 1e-12 {
		t.Fatalf("lower-better delta %v, want %v", lat.Delta, want)
	}
	if lat.Wins != 3 || lat.Verdict != "ok" {
		t.Fatalf("lower-better: %+v, want 3/4 wins, ok", lat)
	}
}

func TestCompareWorse(t *testing.T) {
	par := []float64{100, 101, 99, 100}
	// Throughput down 30% against a 24% bound.
	if r := compareMetric(throughput, par, []float64{70, 71, 69, 70}); r.Verdict != "WORSE" || r.Wins != 0 {
		t.Fatalf("throughput -30%%: %+v, want WORSE", r)
	}
	// Latency up 30% against a 20% bound.
	if r := compareMetric(latencyP50, par, []float64{130, 131, 129, 130}); r.Verdict != "WORSE" {
		t.Fatalf("latency +30%%: %+v, want WORSE", r)
	}
	// Inside the bound on both.
	if r := compareMetric(latencyP50, par, []float64{110, 111, 109, 110}); r.Verdict != "ok" {
		t.Fatalf("latency +10%%: %+v, want ok", r)
	}
}

func TestCompareUnresolved(t *testing.T) {
	// The parent's quartiles span 60..140 around a median of 100: a 80%
	// spread, wider than the 24% bound.
	par := []float64{20, 60, 100, 140, 180}
	r := compareMetric(throughput, par, []float64{95, 96, 97, 98, 99})
	if r.Spread != 0.8 || r.Verdict != "unresolved" {
		t.Fatalf("wide spread, change within bound: %+v, want spread 0.8, unresolved", r)
	}
	// Every change run beating every parent run resolves it.
	if r := compareMetric(throughput, par, []float64{190, 200, 210, 220, 230}); r.Verdict != "ok" {
		t.Fatalf("wide spread, change beats all: %+v, want ok", r)
	}
	// A median beyond the bound stays WORSE however wide the spread.
	if r := compareMetric(throughput, par, []float64{10, 20, 30, 40, 50}); r.Verdict != "WORSE" {
		t.Fatalf("wide spread, change -70%%: %+v, want WORSE", r)
	}
}

func TestCompareZeroParentMedian(t *testing.T) {
	allocs := metricDef{Name: "allocs_per_item", Better: "lower", Bound: 0.15}
	if r := compareMetric(allocs, []float64{0, 0, 0}, []float64{0, 0, 0}); r.Delta != 0 || r.Spread != 0 || r.Verdict != "ok" {
		t.Fatalf("0 vs 0: %+v, want ok", r)
	}
	if r := compareMetric(allocs, []float64{0, 0, 0}, []float64{1, 1, 1}); !math.IsInf(r.Delta, -1) || r.Verdict != "WORSE" {
		t.Fatalf("0 vs 1 allocs: %+v, want WORSE", r)
	}
}

func TestFailedShare(t *testing.T) {
	parse := func(outs ...[]byte) []result {
		var rs []result
		for _, o := range outs {
			r, err := parseResult(o)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
		return rs
	}
	par := parse(cannedRun(1000, 0, 100, 80), cannedRun(1000, 1, 100, 80))
	chg := parse(cannedRun(1000, 2, 100, 80), cannedRun(3000, 0, 100, 80))
	p, c := failedShare(par), failedShare(chg)
	if p != 1.0/2000 || c != 2.0/4000 {
		t.Fatalf("failed shares %v/%v, want 1/2000 and 2/4000", p, c)
	}
	if rose := parse(cannedRun(1000, 3, 100, 80)); !(failedShare(rose) > p) {
		t.Fatal("3 of 1000 failed must read as a rise over 1 of 2000")
	}
	if failedShare(nil) != 0 {
		t.Fatal("no runs must read as no failures")
	}
}

func TestRunOrderAlternates(t *testing.T) {
	for pair := 1; pair <= 10; pair++ {
		o := runOrder(pair)
		first := parent
		if pair%2 == 0 {
			first = change
		}
		if o[0] != first || o[1] != 1-first {
			t.Fatalf("pair %d order %v, want %s first", pair, o, sideName[first])
		}
	}
}
