// Command pipebench regenerates the tables and figures of the
// reconstructed evaluation suite (see DESIGN.md's experiment index)
// and runs the hot-path micro-benchmarks under an allocation gate.
//
// Usage:
//
//	pipebench -list
//	pipebench -exp F1 [-seed 42] [-csv] [-json]
//	pipebench -all [-seed 42] [-workers N] [-json]
//	pipebench -bench [-maxallocs 0] [-benchout report.json]
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
// micro-benchmark suite (internal/bench.Micros) once each and prints
// ns/op, B/op, allocs/op and items/s per benchmark. -maxallocs N turns
// the run into a gate: it exits non-zero if any micro-benchmark reports
// more than N allocs/op — the CI allocation-regression job runs
// -maxallocs 0. Allocation counts are exact on any machine; timing
// comparisons between commits go through gridbench instead (make
// bench-ab, DESIGN.md "Benchmark protocol"). -benchout writes the rows
// (and the stress ramp, if run) as one JSON report; without it nothing
// is written. -cpuprofile/-memprofile write pprof profiles of whatever
// mode ran (bench or experiments).
//
// -grainsweep measures the batched boundary over a grain ladder
// (saturated items/s and paced p99 sojourn per batch size, ladder set
// by -grain) and the per-edge grain lattice, and prints both tables.
//
// -stress runs the RPS stress ramp (see DESIGN.md, "Traffic engine"):
// offered load walks upward in steps, each step drives an open-loop
// job stream through a fresh admission-controlled cluster, and the
// table marks the detected throughput knee. It combines with -bench
// or runs alone. -stress-trace replays a recorded arrival trace
// instead of generating streams: a .csv file goes through
// workload.TraceFromCSV (long t/app/items rows or wide
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
		benchOut = flag.String("benchout", "", "write the -bench/-stress results to this JSON file (empty = write nothing)")
		maxAlloc = flag.Int("maxallocs", -1, "with -bench: fail if any hot-path benchmark exceeds this allocs/op (-1 = no gate)")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker pool size for -all (1 = sequential)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")

		grainSweep = flag.Bool("grainsweep", false, "run the batch-grain sweep standalone (throughput + p99 latency vs grain)")
		grainList  = flag.String("grain", "1,2,4,8,16,32,64,128,256", "grain ladder for -grainsweep (comma-separated)")
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
		if err != nil {
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
		if err := runBench(*benchOut, *maxAlloc, *benchRun, stressCfg); err != nil {
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

// benchReport is the schema of a -benchout file.
type benchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GoMaxProcs records the scheduler width the numbers were taken
	// under.
	GoMaxProcs int                 `json:"gomaxprocs,omitempty"`
	Micro      []bench.MicroResult `json:"micro,omitempty"`
	// Stress holds the RPS stress ramp (offered vs achieved items/s
	// per step plus the detected knee), when -stress ran.
	Stress *bench.StressResult `json:"stress,omitempty"`
}

// parseGrains resolves the -grain flag into the sweep's grain ladder.
func parseGrains(s string) ([]int, error) {
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
// (stress non-nil), or both, writes the JSON report when out is set,
// and applies the allocation gate (maxAlloc < 0 disables it).
func runBench(out string, maxAlloc int, micro bool, stress *bench.StressConfig) error {
	rep := benchReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if micro {
		fmt.Printf("running %d hot-path micro-benchmarks...\n", len(bench.Micros()))
		rep.Micro = bench.RunMicros()
		for _, m := range rep.Micro {
			fmt.Printf("%-30s %12.1f ns/op %8d B/op %6d allocs/op %14.0f items/s\n",
				m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.ItemsPerSec)
		}
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
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if maxAlloc >= 0 {
		var over []string
		for _, m := range rep.Micro {
			if m.AllocsPerOp > int64(maxAlloc) {
				over = append(over, fmt.Sprintf("%s (%d allocs/op)", m.Name, m.AllocsPerOp))
			}
		}
		if len(over) > 0 {
			return fmt.Errorf("allocation gate (> %d allocs/op): %s", maxAlloc, strings.Join(over, ", "))
		}
		fmt.Printf("allocation gate passed: every hot path at ≤ %d allocs/op\n", maxAlloc)
	}
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
