// Command gridbench is gridpipe's benchmark. It runs one of four seeded
// workloads over the live runtime (pipeline and farm on the steal
// executor, driven by liveadapt) or the simulated grid (workload →
// cluster → sched/model → exec → sim), checks every output, and prints
// the metrics named in BENCHMARK.json:
//
//	bash gridbench/run.sh --workload fine_grain --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs untraced for half the time and traced for the
// other half, and reports the per-layer metrics of the traced half plus
// trace_overhead_frac. The traced half records spans around the
// benchmark's stage functions and its calls into each layer's public
// API, reads the layers' public counters, takes a CPU profile, and
// writes the spans to .bench_build/spans/.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it
// describe the run (nproc, GOMAXPROCS, Go version, seed) and list every
// metric with its unit, including failed_frac.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// catalogFile is the benchmark definition, read from the checkout root:
// the metric names and units the result must carry.
const catalogFile = "BENCHMARK.json"

// spanDir is where traced runs write their spans.
const spanDir = ".bench_build/spans"

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog() (*catalog, error) {
	raw, err := os.ReadFile(catalogFile)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", catalogFile, err)
	}
	return &c, nil
}

// phase is one timed run of a workload.
type phase struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil when untraced
}

func (ph phase) traced() bool { return ph.tr != nil }

// outcome is what one phase measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	notes     []string // human-readable lines for the report
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed items and records why; failures are never
// dropped.
func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.note("FAILED %d: %s", n, fmt.Sprintf(format, args...))
}

// setMemory fills the memory metrics, which every workload derives the
// same way.
func (o *outcome) setMemory(mallocs, heapPeak uint64, items int64) {
	o.e2e["allocs_per_item"] = float64(mallocs) / float64(items)
	o.e2e["heap_peak_mb"] = float64(heapPeak) / (1 << 20)
}

type workloadFn func(ctx context.Context, ph phase) (*outcome, error)

var workloads = map[string]workloadFn{
	"fine_grain":   fineGrain,
	"cpu_dag":      cpuDAG,
	"remote_adapt": remoteAdapt,
	"sim_grid":     simGrid,
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: fine_grain, cpu_dag, remote_adapt or sim_grid")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs a traced half and reports the per-layer metrics")
	flag.Parse()

	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	listed := false
	for _, w := range cat.Workloads {
		listed = listed || w.Name == *name
	}
	if !listed {
		return fmt.Errorf("workload %q is not in %s", *name, catalogFile)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}

	fmt.Printf("gridbench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	ctx := context.Background()
	var out *outcome
	var all []*outcome
	if *trace == 0 {
		out, err = fn(ctx, phase{seed: *seed, seconds: *seconds})
		if err != nil {
			return err
		}
		all = []*outcome{out}
	} else {
		plain, err := fn(ctx, phase{seed: *seed, seconds: *seconds / 2})
		if err != nil {
			return err
		}
		tr := newTracer()
		prof, err := startProfile()
		if err != nil {
			return err
		}
		out, err = fn(ctx, phase{seed: *seed, seconds: *seconds / 2, tr: tr})
		share, samples, perr := prof.stop()
		if err != nil {
			return err
		}
		if perr != nil {
			return perr
		}
		for l, v := range share {
			out.layer["cpu_share."+l] = v
		}
		out.note("cpu profile: %d samples, attributed by the package of each leaf frame", samples)
		out.layer["trace_overhead_frac"] = 1 - out.e2e["items_per_s"]/plain.e2e["items_per_s"]
		header := []string{
			fmt.Sprintf("workload=%s seed=%d seconds=%g nproc=%d GOMAXPROCS=%d go=%s",
				*name, *seed, *seconds/2, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
			"spans: API calls made by the benchmark and, per item, the item root and its stage functions",
		}
		path, err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.csv", *name, *seed), header)
		if err != nil {
			return err
		}
		out.note("spans written to %s", path)
		all = []*outcome{plain, out}
	}

	res := result{Metrics: map[string]jsonMetric{}}
	for _, o := range all {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	for i, o := range all {
		if len(all) > 1 {
			fmt.Println([]string{"untraced half:", "traced half:"}[i])
		}
		for _, n := range o.notes {
			fmt.Println("  " + n)
		}
	}
	fmt.Printf("  failed_frac = %.6g (failed %d of %d attempted)\n",
		float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Failed, res.Attempted)

	defs, values := cat.EndToEnd, out.e2e
	if *trace == 1 {
		defs, values = cat.PerLayer, out.layer
	}
	if err := checkNames(defs, values, *trace == 0); err != nil {
		return err
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Printf("  %-36s %16.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkNames rejects a measured metric that the catalog does not name
// and, for end-to-end metrics (strict), a catalog metric that was not
// measured. A per-layer metric of a layer the workload does not exercise
// reads 0.
func checkNames(defs []metricDef, values map[string]float64, strict bool) error {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		if _, ok := values[d.Name]; !ok && strict {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
	}
	var extra []string
	for n := range values {
		if !known[n] {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics missing from %s: %s", catalogFile, strings.Join(extra, ", "))
	}
	return nil
}

// deadline bounds a phase so a stuck pipeline ends the run instead of
// hanging it; items it cuts off are counted as failed.
func deadline(ctx context.Context, ph phase) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, time.Duration((3*ph.seconds+30)*float64(time.Second)))
}
