// Command pipebench regenerates the tables and figures of the
// reconstructed evaluation suite (see DESIGN.md's experiment index)
// and tracks the hot-path performance trajectory.
//
// Usage:
//
//	pipebench -list
//	pipebench -exp F1 [-seed 42] [-csv] [-json]
//	pipebench -all [-seed 42] [-workers N] [-json]
//	pipebench -bench [-benchout BENCH_1.json] [-maxallocs 0]
//	pipebench -bench -diff BENCH_4.json [-maxregress 0.20]
//	pipebench -bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	pipebench -stress [-stress-process poisson] [-stress-steps 8]
//	pipebench -stress -stress-trace invocations.csv
//	pipebench -grainsweep [-grain 1,8,64] [-grain-items 200000]
//
// -all fans the experiments across a bounded worker pool (default one
// worker per CPU); every experiment seeds its own RNG streams, so the
// tables are identical to a sequential sweep and print in ID order
// (wall-clock experiments such as F11 run sequentially after the pool
// drains, so concurrent sweeps cannot pollute their timings).
//
// Each experiment prints its tables; -csv additionally dumps every
// figure series as CSV for offline plotting. -bench runs the hot-path
// micro-benchmark suite (internal/bench.Micros) and writes a
// machine-readable BENCH_*.json — ns/op, B/op, allocs/op, items/s per
// benchmark, plus the recorded seed baseline the current numbers are
// gated against (format documented in DESIGN.md). -maxallocs N turns
// the run into a gate: it exits non-zero if any hot-path benchmark
// reports more than N allocs/op (the in-tree seed-reference rows,
// which reproduce the seed's allocating designs on purpose, are
// exempt) — the CI allocation-regression job runs -maxallocs 0.
// -cpuprofile/-memprofile write pprof profiles of whatever mode ran
// (bench or experiments), the inputs of the benchmark protocol's
// "profile before optimising" step (DESIGN.md).
//
// -bench also embeds a `batch` section: the batched boundary micro
// against its unbatched and seed counterparts plus a grain sweep
// (saturated items/s and paced p99 sojourn per batch size, ladder set
// by -grain). -grainsweep runs the sweep standalone.
//
// -stress runs the RPS stress ramp (see DESIGN.md, "Traffic engine"):
// offered load walks upward in steps, each step drives an open-loop
// job stream through a fresh admission-controlled cluster, and the
// detected throughput knee lands in the report's `stress` section.
// It combines with -bench (one BENCH_*.json carrying both sections)
// or runs alone (a stress-only report). -stress-trace replays a
// recorded arrival trace instead of generating streams: a .csv file
// goes through workload.TraceFromCSV (long t/app/items rows or wide
// invitro/Azure-style per-bucket invocation counts, auto-detected),
// anything else through workload.ReadTrace; each ramp step rescales
// the recorded arrival times so the offered load matches while the
// burst structure is preserved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gridpipe/internal/bench"
	"gridpipe/internal/workload"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		exp      = flag.String("exp", "", "experiment id to run (e.g. F1, T2)")
		all      = flag.Bool("all", false, "run every experiment")
		seed     = flag.Uint64("seed", 42, "random seed")
		csv      = flag.Bool("csv", false, "also print figure series as CSV")
		jsonOut  = flag.Bool("json", false, "print experiment results as JSON (one document per experiment)")
		outdir   = flag.String("outdir", "", "write every table and series as CSV files into this directory")
		benchRun = flag.Bool("bench", false, "run the hot-path micro-benchmark suite")
		benchOut = flag.String("benchout", "BENCH_1.json", "file the -bench results are written to")
		maxAlloc = flag.Int("maxallocs", -1, "with -bench: fail if any hot-path benchmark exceeds this allocs/op (-1 = no gate)")
		diffPath = flag.String("diff", "", "with -bench: compare against this BENCH_*.json snapshot and fail on regression")
		maxRegr  = flag.Float64("maxregress", 0.20, "with -diff: maximum tolerated ns/op regression ratio")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker pool size for -all (1 = sequential)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")

		grainSweep = flag.Bool("grainsweep", false, "run the batch-grain sweep standalone (throughput + p99 latency vs grain)")
		grainList  = flag.String("grain", "1,2,4,8,16,32,64,128,256", "grain ladder for the batch sweep (comma-separated; empty skips the sweep in -bench)")
		grainItems = flag.Int("grain-items", 200000, "items per grain-sweep throughput measurement")

		stressRun     = flag.Bool("stress", false, "run the RPS stress ramp (alone or combined with -bench)")
		stressProc    = flag.String("stress-process", "poisson", "stress: arrival-process family (poisson, uniform, bursty, diurnal, pareto)")
		stressApp     = flag.String("stress-app", "genome", "stress: bundled workload every job runs")
		stressNodes   = flag.Int("stress-nodes", 8, "stress: simulated grid size")
		stressItems   = flag.Int("stress-items", 20, "stress: items per job")
		stressStart   = flag.Float64("stress-start", 4, "stress: first step's offered load in items/s")
		stressStep    = flag.Float64("stress-step", 4, "stress: offered-load increment per step in items/s")
		stressSteps   = flag.Int("stress-steps", 8, "stress: number of ramp steps")
		stressHorizon = flag.Float64("stress-horizon", 240, "stress: arrival window per step in virtual seconds")
		stressTrace   = flag.String("stress-trace", "", "stress: replay this recorded trace (.csv invocation trace or .jsonl) rescaled to each step's offered load instead of generating streams")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: memprofile: %v\n", err)
			}
		}()
	}

	switch {
	case *list:
		listExperiments(os.Stdout)
	case *grainSweep:
		grains, err := parseGrains(*grainList)
		if err != nil || len(grains) == 0 {
			fmt.Fprintf(os.Stderr, "pipebench: -grainsweep needs a grain ladder (-grain \"1,8,64\"): %v\n", err)
			os.Exit(1)
		}
		if err := runGrainSweep(grains, *grainItems, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: grainsweep: %v\n", err)
			os.Exit(1)
		}
	case *benchRun || *stressRun:
		var stressCfg *bench.StressConfig
		if *stressRun {
			stressCfg = &bench.StressConfig{
				Nodes:       *stressNodes,
				App:         *stressApp,
				Process:     *stressProc,
				ItemsPerJob: *stressItems,
				StartRPS:    *stressStart,
				StepRPS:     *stressStep,
				Steps:       *stressSteps,
				Horizon:     *stressHorizon,
				Seed:        *seed,
			}
			if *stressTrace != "" {
				tr, err := loadTrace(*stressTrace, *stressApp, *stressItems)
				if err != nil {
					fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
					os.Exit(1)
				}
				stressCfg.Trace = tr
				fmt.Printf("replaying %s: %d arrivals, %d items over %.4g s (native %.4g items/s)\n",
					*stressTrace, len(tr), tr.TotalItems(), tr.Span(),
					float64(tr.TotalItems())/tr.Span())
			}
		}
		grains, err := parseGrains(*grainList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			os.Exit(1)
		}
		if err := runBench(*benchOut, *maxAlloc, *diffPath, *maxRegr, *benchRun, stressCfg, grains, *grainItems); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: bench: %v\n", err)
			os.Exit(1)
		}
	case *all:
		// Repetitions fan out across the pool; outcomes print in ID
		// order, byte-identical to a sequential sweep.
		failed := false
		for _, out := range bench.RunAll(*seed, *workers) {
			if out.Err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", out.Experiment.ID, out.Err)
				failed = true
				continue
			}
			if err := emitOne(out.Result, *csv, *jsonOut, *outdir); err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", out.Experiment.ID, err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	case *exp != "":
		e, err := bench.ByID(*exp)
		if err != nil {
			// An unknown ID is most often a typo: show the menu rather
			// than an opaque failure.
			fmt.Fprintf(os.Stderr, "pipebench: unknown experiment %q; valid experiment IDs:\n", *exp)
			listExperiments(os.Stderr)
			os.Exit(1)
		}
		if err := runOne(e, *seed, *csv, *jsonOut, *outdir); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// listExperiments prints the experiment menu, one "ID Title" per line.
func listExperiments(w io.Writer) {
	for _, e := range bench.All() {
		fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
	}
}

// benchReport is the schema of a BENCH_*.json file (see DESIGN.md,
// "Benchmark protocol").
type benchReport struct {
	Bench       string `json:"bench"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	CPUs        int    `json:"cpus"`
	// GoMaxProcs records the scheduler width the numbers were taken
	// under; bench-diff warns (informationally) when it or CPUs differ
	// from the baseline's, since wall-clock ratios across machine shapes
	// reflect the machine, not the code.
	GoMaxProcs int                 `json:"gomaxprocs,omitempty"`
	Micro      []bench.MicroResult `json:"micro"`
	// Sched records the branch-and-bound pruning telemetry on the T4
	// validation configuration: candidates an unpruned enumeration
	// would rate vs candidates the model actually evaluated. Absent
	// from snapshots predating the pruned search.
	Sched *bench.SchedSearchStats `json:"sched,omitempty"`
	// Stress holds the RPS stress ramp (offered vs achieved items/s
	// per step plus the detected knee). Absent from snapshots
	// predating the traffic engine, and from plain -bench runs;
	// bench-diff treats it as informational (the ramp is a
	// virtual-time capacity measurement, not a wall-clock hot path).
	Stress *bench.StressResult `json:"stress,omitempty"`
	// Batch holds the granularity section: the batched-boundary micro
	// against its unbatched and seed counterparts, plus the grain
	// sweep (saturated items/s and paced p99 sojourn per batch size).
	// Absent from snapshots predating batched boundaries; bench-diff
	// treats it as informational (the micro rows are gated as usual).
	Batch *batchSection `json:"batch,omitempty"`
	// Steal holds the work-stealing executor section: the deque and
	// inject micro numbers plus a live handoff profile (how tasks
	// reached workers, per item). Absent from snapshots predating the
	// shared executor; bench-diff gates the micro rows as usual.
	Steal *stealSection `json:"steal,omitempty"`
	// EdgeGrains holds the per-edge granularity sweep: live throughput
	// over boundary grain vectors plus the vector the model's
	// coordinate-descent search picks on an asymmetric spec. Absent
	// from snapshots predating per-edge grains; informational for
	// bench-diff.
	EdgeGrains *bench.EdgeGrainResult `json:"edge_grains,omitempty"`
	// SeedBaseline records the seed commit's (e363cbf) hot-path
	// numbers, measured with the pre-rewrite benchmarks on the same
	// class of machine, so every BENCH file carries the comparison
	// point its allocation-reduction gates refer to.
	SeedBaseline []bench.MicroResult `json:"seed_baseline"`
}

// seedBaseline: measured at the seed commit with
// `go test -bench 'DiscreteEventEngine|LivePipeline|SimExecutor' -benchmem`.
// The engine row is per 64-event batch (seed: one *Event allocation per
// Schedule) to match engine/schedule_step's unit.
var seedBaseline = []bench.MicroResult{
	{Name: "engine/schedule_step", Desc: "seed container/heap calendar, per 64-event batch", NsPerOp: 64.92 * 64, BytesPerOp: 47 * 64, AllocsPerOp: 64},
	{Name: "pipeline/reorder_stage", Desc: "seed goroutine-per-item + map reorderer, per item", NsPerOp: 5524, BytesPerOp: 440, AllocsPerOp: 6},
	{Name: "exec/run_items", Desc: "seed executor, per simulated item", NsPerOp: 2663, BytesPerOp: 1456, AllocsPerOp: 37},
}

// batchSection is the `batch` block of a BENCH_*.json report: the
// acceptance comparison (batched boundary vs the unbatched and seed
// micros, items/s) and the grain sweep behind it.
type batchSection struct {
	// BoundaryItemsPerSec / UnbatchedItemsPerSec / SeedItemsPerSec are
	// the items/s of pipeline/batch_boundary, pipeline/reorder_stage,
	// and pipeline/seed_reorder_stage from this run's micro rows.
	BoundaryItemsPerSec  float64 `json:"boundary_items_per_s"`
	UnbatchedItemsPerSec float64 `json:"unbatched_items_per_s"`
	SeedItemsPerSec      float64 `json:"seed_items_per_s"`
	// SpeedupVsUnbatched and SpeedupVsSeed are the boundary ratios.
	SpeedupVsUnbatched float64 `json:"speedup_vs_unbatched"`
	SpeedupVsSeed      float64 `json:"speedup_vs_seed"`
	// BoundaryAllocsPerOp restates the batched micro's allocs/op: the
	// acceptance criterion requires 0 at steady state.
	BoundaryAllocsPerOp int64 `json:"boundary_allocs_per_op"`
	// Grains is the sweep: saturated throughput and paced p99 item
	// sojourn per batch size.
	Grains []bench.GrainPoint `json:"grains,omitempty"`
}

// stealSection is the `steal` block of a BENCH_*.json report: the
// executor's three micro numbers restated (ns per 64-cycle op and
// allocs/op — the acceptance criterion requires 0) plus the live
// handoff profile of a pipeline run on a dedicated executor.
type stealSection struct {
	LocalPopNsPerOp  float64 `json:"local_pop_ns_per_op"`
	StealHalfNsPerOp float64 `json:"steal_half_ns_per_op"`
	InjectNsPerOp    float64 `json:"inject_ns_per_op"`
	LocalPopAllocs   int64   `json:"local_pop_allocs_per_op"`
	StealHalfAllocs  int64   `json:"steal_half_allocs_per_op"`
	InjectAllocs     int64   `json:"inject_allocs_per_op"`
	// Profile is the handoffs-per-item accounting of a live run (see
	// DESIGN.md, the handoff post-mortem).
	Profile *bench.StealProfileResult `json:"profile,omitempty"`
}

// parseGrains resolves the -grain flag into the sweep's grain ladder;
// an empty flag means "skip the sweep".
func parseGrains(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -grain entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runGrainSweep runs the sweep standalone and prints a table.
func runGrainSweep(grains []int, items int, w io.Writer) error {
	fmt.Fprintf(w, "grain sweep: %d items per point, linger %s\n", items, "1ms")
	points, err := bench.GrainSweep(bench.GrainSweepConfig{Grains: grains, Items: items})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %14s %16s\n", "grain", "items/s", "p99 latency")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %14.0f %16s\n", p.Grain, p.ItemsPerSec,
			time.Duration(int64(p.P99LatencyNs)).Round(time.Microsecond))
	}
	// The per-edge counterpart: measure the corner vectors of the
	// two-boundary lattice and report the vector the coordinate-descent
	// search picks on the asymmetric spec.
	fmt.Fprintf(w, "\nper-edge sweep (two-stage pipeline, %d items per point):\n", items)
	eg, err := bench.EdgeGrainSweep(bench.EdgeGrainSweepConfig{Items: items})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s %14s\n", "grains", "items/s")
	for _, p := range eg.Points {
		mark := " "
		if p.Chosen {
			mark = "*"
		}
		fmt.Fprintf(w, "%9s%s %14.0f\n", grainVec(p.Grains), mark, p.ItemsPerSec)
	}
	fmt.Fprintf(w, "per-edge search chose [%s] (* above; model predicts %.1f items/s on the asymmetric spec)\n",
		grainVec(eg.Chosen), eg.PredictedItemsPerSec)
	return nil
}

// grainVec renders a boundary grain vector as "1,64".
func grainVec(v []int) string {
	parts := make([]string, len(v))
	for i, g := range v {
		parts[i] = strconv.Itoa(g)
	}
	return strings.Join(parts, ",")
}

// loadTrace reads a recorded arrival trace for stress replay: .csv
// files go through the invocation-trace importer (long or wide layout,
// auto-detected; app/items fill rows that lack them), anything else is
// parsed as the native JSON-lines format.
func loadTrace(path, app string, items int) (workload.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		return workload.TraceFromCSV(f, workload.CSVTraceOptions{App: app, Items: items})
	}
	return workload.ReadTrace(f)
}

// runBench executes the micro suite (micro true), the stress ramp
// (stress non-nil), or both, writes the JSON report, and applies the
// allocation gate (maxAlloc < 0 disables it) and the
// snapshot-regression gate (diffPath empty disables it).
func runBench(out string, maxAlloc int, diffPath string, maxRegress float64, micro bool, stress *bench.StressConfig, grains []int, grainItems int) error {
	rep := benchReport{
		Bench:        strings.TrimSuffix(filepath.Base(out), ".json"),
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUs:         runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SeedBaseline: seedBaseline,
	}
	if micro {
		fmt.Printf("running %d hot-path micro-benchmarks...\n", len(bench.Micros()))
		rep.Micro = bench.RunMicros()
		for _, m := range rep.Micro {
			fmt.Printf("%-30s %12.1f ns/op %8d B/op %6d allocs/op %14.0f items/s\n",
				m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.ItemsPerSec)
		}
		sched, err := bench.SchedSearchTelemetry()
		if err != nil {
			return err
		}
		rep.Sched = &sched
		fmt.Printf("sched pruning (%s): %d candidates, %d evaluated, %.0fx\n",
			sched.Config, sched.Candidates, sched.Evaluated, sched.PruneRatio)
		sec := &batchSection{}
		for _, m := range rep.Micro {
			switch m.Name {
			case "pipeline/batch_boundary":
				sec.BoundaryItemsPerSec = m.ItemsPerSec
				sec.BoundaryAllocsPerOp = m.AllocsPerOp
			case "pipeline/reorder_stage":
				sec.UnbatchedItemsPerSec = m.ItemsPerSec
			case "pipeline/seed_reorder_stage":
				sec.SeedItemsPerSec = m.ItemsPerSec
			}
		}
		if sec.UnbatchedItemsPerSec > 0 {
			sec.SpeedupVsUnbatched = sec.BoundaryItemsPerSec / sec.UnbatchedItemsPerSec
		}
		if sec.SeedItemsPerSec > 0 {
			sec.SpeedupVsSeed = sec.BoundaryItemsPerSec / sec.SeedItemsPerSec
		}
		if len(grains) > 0 {
			fmt.Println("running the batch-grain sweep...")
			points, err := bench.GrainSweep(bench.GrainSweepConfig{Grains: grains, Items: grainItems})
			if err != nil {
				return err
			}
			sec.Grains = points
			for _, p := range points {
				fmt.Printf("grain %-4d %12.0f items/s  p99 %s\n", p.Grain, p.ItemsPerSec,
					time.Duration(int64(p.P99LatencyNs)).Round(time.Microsecond))
			}
		}
		rep.Batch = sec
		fmt.Printf("batch boundary: %.0f items/s, %.2fx vs unbatched, %.2fx vs seed, %d allocs/op\n",
			sec.BoundaryItemsPerSec, sec.SpeedupVsUnbatched, sec.SpeedupVsSeed, sec.BoundaryAllocsPerOp)

		st := &stealSection{}
		for _, m := range rep.Micro {
			switch m.Name {
			case "steal/local_pop":
				st.LocalPopNsPerOp = m.NsPerOp
				st.LocalPopAllocs = m.AllocsPerOp
			case "steal/steal_half":
				st.StealHalfNsPerOp = m.NsPerOp
				st.StealHalfAllocs = m.AllocsPerOp
			case "steal/inject":
				st.InjectNsPerOp = m.NsPerOp
				st.InjectAllocs = m.AllocsPerOp
			}
		}
		fmt.Println("profiling executor handoffs on a live pipeline run...")
		profile, err := bench.StealProfile(grainItems)
		if err != nil {
			return err
		}
		st.Profile = profile
		rep.Steal = st
		fmt.Printf("steal handoffs per item: %.3f injects, %.3f pops, %.3f grabbed, %.3f steals, %.3f parks\n",
			profile.InjectsPerItem, profile.PopsPerItem, profile.GrabbedPerItem,
			profile.StealsPerItem, profile.ParksPerItem)

		fmt.Println("running the per-edge grain sweep...")
		eg, err := bench.EdgeGrainSweep(bench.EdgeGrainSweepConfig{Items: grainItems})
		if err != nil {
			return err
		}
		rep.EdgeGrains = eg
		for _, p := range eg.Points {
			mark := " "
			if p.Chosen {
				mark = "*"
			}
			fmt.Printf("edge grains [%s]%s %12.0f items/s\n", grainVec(p.Grains), mark, p.ItemsPerSec)
		}
		fmt.Printf("per-edge search chose [%s] (model predicts %.1f items/s on the asymmetric spec)\n",
			grainVec(eg.Chosen), eg.PredictedItemsPerSec)
	}
	if stress != nil {
		fmt.Println("running the RPS stress ramp...")
		sres, err := bench.StressRamp(*stress)
		if err != nil {
			return err
		}
		rep.Stress = sres
		fmt.Print(bench.StressTable(sres).String())
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if maxAlloc >= 0 {
		var over []string
		for _, m := range rep.Micro {
			// The seed-reference rows reproduce the seed's allocating
			// designs on purpose; the gate covers the current hot paths.
			if strings.Contains(m.Name, "seed") {
				continue
			}
			if m.AllocsPerOp > int64(maxAlloc) {
				over = append(over, fmt.Sprintf("%s (%d allocs/op)", m.Name, m.AllocsPerOp))
			}
		}
		if len(over) > 0 {
			return fmt.Errorf("allocation gate (> %d allocs/op): %s", maxAlloc, strings.Join(over, ", "))
		}
		fmt.Printf("allocation gate passed: every hot path at ≤ %d allocs/op\n", maxAlloc)
	}
	if diffPath != "" {
		if err := diffBench(rep.Micro, diffPath, maxRegress); err != nil {
			return err
		}
	}
	return nil
}

// diffBench compares a fresh micro run against a committed snapshot:
// any benchmark whose ns/op regressed by more than maxRegress, or
// whose allocs/op increased at all, fails the gate. Benchmarks present
// on only one side are reported informationally (a new benchmark is
// not a regression); seed-reference rows are exempt like everywhere
// else.
func diffBench(fresh []bench.MicroResult, diffPath string, maxRegress float64) error {
	data, err := os.ReadFile(diffPath)
	if err != nil {
		return fmt.Errorf("diff baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("diff baseline %s: %w", diffPath, err)
	}
	baseline := map[string]bench.MicroResult{}
	for _, m := range base.Micro {
		baseline[m.Name] = m
	}
	var regressions []string
	fmt.Printf("diff against %s (bench %s, %s):\n", diffPath, base.Bench, base.GeneratedAt)
	// Cross-machine comparisons are warnings, never failures: ns/op
	// ratios taken under a different core count or scheduler width
	// reflect the machine, not the code.
	if base.CPUs != 0 && base.CPUs != runtime.NumCPU() {
		fmt.Printf("  warning: baseline ran on %d CPUs, this machine has %d — ns/op deltas may reflect the machine, not the code\n",
			base.CPUs, runtime.NumCPU())
	}
	if base.GoMaxProcs != 0 && base.GoMaxProcs != runtime.GOMAXPROCS(0) {
		fmt.Printf("  warning: baseline ran at GOMAXPROCS=%d, this run is at %d — ns/op deltas may reflect the scheduler width, not the code\n",
			base.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	seen := map[string]bool{}
	for _, m := range fresh {
		if strings.Contains(m.Name, "seed") {
			continue
		}
		seen[m.Name] = true
		b, ok := baseline[m.Name]
		if !ok {
			fmt.Printf("  %-30s new benchmark (no baseline)\n", m.Name)
			continue
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = m.NsPerOp/b.NsPerOp - 1
		}
		fmt.Printf("  %-30s ns/op %10.1f -> %10.1f (%+5.1f%%)  allocs %d -> %d\n",
			m.Name, b.NsPerOp, m.NsPerOp, 100*ratio, b.AllocsPerOp, m.AllocsPerOp)
		if ratio > maxRegress {
			regressions = append(regressions, fmt.Sprintf(
				"%s ns/op regressed %.1f%% (limit %.0f%%)", m.Name, 100*ratio, 100*maxRegress))
		}
		if m.AllocsPerOp > b.AllocsPerOp {
			regressions = append(regressions, fmt.Sprintf(
				"%s allocs/op grew %d -> %d", m.Name, b.AllocsPerOp, m.AllocsPerOp))
		}
	}
	// The other side of the informational report: baseline benchmarks
	// the fresh run no longer has (renamed or deleted hot paths).
	for _, b := range base.Micro {
		if strings.Contains(b.Name, "seed") || seen[b.Name] {
			continue
		}
		fmt.Printf("  %-30s missing from fresh run (renamed or removed?)\n", b.Name)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench-diff gate: %s", strings.Join(regressions, "; "))
	}
	fmt.Println("bench-diff gate passed")
	return nil
}

func runOne(e bench.Experiment, seed uint64, csv, jsonOut bool, outdir string) error {
	res, err := e.Run(seed)
	if err != nil {
		return err
	}
	return emitOne(res, csv, jsonOut, outdir)
}

// emitOne prints (and optionally exports) one experiment result. With
// jsonOut the result is one JSON document (tables as cell arrays,
// series as [t, v] point lists) instead of the aligned text tables —
// with -all, one document per experiment in ID order.
func emitOne(res *bench.Result, csv, jsonOut bool, outdir string) error {
	if jsonOut {
		data, err := json.MarshalIndent(res.Doc(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(res.String())
		if csv {
			for _, s := range res.Series {
				fmt.Printf("\n--- series %s ---\n%s", s.Name, s.CSV())
			}
		}
	}
	if outdir != "" {
		if err := export(res, outdir); err != nil {
			return err
		}
	}
	if !jsonOut {
		fmt.Println()
	}
	return nil
}

// export writes the result's tables and series as CSV files named
// <id>_table<i>.csv and <id>_<series>.csv.
func export(res *bench.Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", res.ID, i))
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	for _, s := range res.Series {
		name := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
				return r
			default:
				return '_'
			}
		}, s.Name)
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", res.ID, name))
		if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
