// Command benchab compares a git revision with this checkout on the
// benchmark BENCHMARK.json declares:
//
//	go run ./cmd/benchab -ref HEAD~1 [-pairs 10] [-workload sim_grid]
//
// Run it from the checkout root. It checks -ref out into a detached git
// worktree under .bench_build/ab/ and runs both trees' gridbench/run.sh
// in interleaved pairs: pair i runs each workload with --seed i --trace
// 0 for BENCHMARK.json's run_seconds, the parent (-ref) first on odd
// pairs and second on even ones. For every workload × end-to-end metric
// it prints both medians, the change's signed delta in the metric's
// better direction, the parent's interquartile spread, the bound, the
// pairs the change won and a verdict (see compareMetric), then each
// side's failed share. It exits 1 on any WORSE verdict or a higher
// failed share.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The two sides of a comparison, as indices into per-side arrays.
const (
	parent = 0
	change = 1
)

var sideName = [2]string{"parent", "change"}

// catalog is the part of BENCHMARK.json the comparison reads.
type catalog struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// metricDef is one end-to-end metric: the relative worsening of its
// median that Bound tolerates is measured in its Better direction
// ("higher" or "lower").
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON object on the last line of a gridbench run.
type result struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	ref := flag.String("ref", "", "git revision of the parent side (required)")
	pairs := flag.Int("pairs", 10, "parent/change run pairs per workload")
	only := flag.String("workload", "", "compare only this workload")
	flag.Parse()
	if *ref == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	var cat catalog
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &cat)
	}
	if err != nil {
		return fail(err)
	}
	var workloads []string
	for _, w := range cat.Workloads {
		if *only == "" || w.Name == *only {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fail(fmt.Errorf("no workload %q in BENCHMARK.json", *only))
	}

	sha, err := git("rev-parse", "--verify", *ref+"^{commit}")
	if err != nil {
		return fail(err)
	}
	tree := filepath.Join(".bench_build", "ab", sha[:12])
	_, _ = git("worktree", "remove", "--force", tree) // left by an interrupted run, if any
	if _, err := git("worktree", "add", "--detach", "--force", tree, sha); err != nil {
		return fail(err)
	}
	defer func() {
		if _, err := git("worktree", "remove", "--force", tree); err != nil {
			fmt.Fprintln(os.Stderr, "benchab:", err)
		}
	}()
	roots := [2]string{tree, "."}

	runs := map[string]*[2][]result{}
	for _, w := range workloads {
		runs[w] = &[2][]result{}
	}
	for pair := 1; pair <= *pairs; pair++ {
		for _, w := range workloads {
			for _, side := range runOrder(pair) {
				fmt.Fprintf(os.Stderr, "benchab: pair %d/%d %s %s\n", pair, *pairs, w, sideName[side])
				cmd := exec.Command("bash", "gridbench/run.sh", "--workload", w,
					"--seed", strconv.Itoa(pair), "--seconds", strconv.FormatFloat(cat.RunSeconds, 'g', -1, 64), "--trace", "0")
				cmd.Dir, cmd.Stderr = roots[side], os.Stderr
				out, err := cmd.Output()
				var r result
				if err == nil {
					r, err = parseResult(out)
				}
				if err != nil {
					return fail(fmt.Errorf("%s %s pair %d: %w", sideName[side], w, pair, err))
				}
				runs[w][side] = append(runs[w][side], r)
			}
		}
	}

	fmt.Printf("benchab: parent %s (%s) vs this checkout, %d pairs of %gs runs\n", *ref, sha[:12], *pairs, cat.RunSeconds)
	bad := false
	var rows []row
	for _, w := range workloads {
		for _, d := range cat.EndToEnd {
			var vals [2][]float64
			for side, rs := range runs[w] {
				for _, r := range rs {
					vals[side] = append(vals[side], r.Metrics[d.Name].Value)
				}
			}
			r := compareMetric(d, vals[parent], vals[change])
			r.Workload = w
			rows = append(rows, r)
			bad = bad || r.Verdict == "WORSE"
		}
	}
	fmt.Printf("%-12s %-18s %12s %12s %8s %8s %6s %6s  %s\n",
		"workload", "metric", "parent", "change", "delta", "spread", "bound", "wins", "verdict")
	for _, r := range rows {
		fmt.Printf("%-12s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%% %3d/%-2d  %s\n",
			r.Workload, r.Metric, r.Parent, r.Change, 100*r.Delta, 100*r.Spread, 100*r.Bound, r.Wins, r.Pairs, r.Verdict)
	}
	for _, w := range workloads {
		p, c := failedShare(runs[w][parent]), failedShare(runs[w][change])
		fmt.Printf("%-12s failed share: parent %.6g, change %.6g\n", w, p, c)
		bad = bad || c > p
	}
	if bad {
		return 1
	}
	return 0
}

// runOrder is the side order of pair i (1-based): the parent runs first
// on odd pairs and second on even pairs, so drift in the machine's load
// favours neither side.
func runOrder(pair int) [2]int {
	if pair%2 == 1 {
		return [2]int{parent, change}
	}
	return [2]int{change, parent}
}

// parseResult decodes the last line of a run's output.
func parseResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", lines[len(lines)-1], err)
	}
	return r, nil
}

// failedShare is the share of attempted operations that failed, over
// all of one side's runs.
func failedShare(runs []result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// row is one workload × metric comparison. Delta is the change's median
// relative to the parent's, signed so that positive is better; Spread
// is the parent's interquartile range relative to its median; Wins
// counts the pairs whose change run reads strictly better.
type row struct {
	Workload, Metric                     string
	Parent, Change, Delta, Spread, Bound float64
	Wins, Pairs                          int
	Verdict                              string
}

// compareMetric compares one metric's runs, pair i being
// (parentVals[i], changeVals[i]); both are non-empty. The verdict is
// WORSE when the change's median is worse than the parent's by more
// than the bound; otherwise unresolved when the parent's spread is
// wider than the bound and not every change run beats every parent run;
// otherwise ok.
func compareMetric(d metricDef, parentVals, changeVals []float64) row {
	sign := 1.0
	if d.Better == "lower" {
		sign = -1
	}
	p := append([]float64(nil), parentVals...)
	c := append([]float64(nil), changeVals...)
	sort.Float64s(p)
	sort.Float64s(c)
	r := row{Metric: d.Name, Parent: quantile(p, 0.5), Change: quantile(c, 0.5), Bound: d.Bound, Pairs: min(len(p), len(c))}
	r.Delta = relative(sign*(r.Change-r.Parent), r.Parent)
	r.Spread = relative(quantile(p, 0.75)-quantile(p, 0.25), r.Parent)
	for i := 0; i < r.Pairs; i++ {
		if sign*(changeVals[i]-parentVals[i]) > 0 {
			r.Wins++
		}
	}
	// Every change run beats every parent run when the change's worst
	// run beats the parent's best.
	allBeat := c[0] > p[len(p)-1]
	if sign < 0 {
		allBeat = c[len(c)-1] < p[0]
	}
	switch {
	case r.Delta < -d.Bound:
		r.Verdict = "WORSE"
	case r.Spread > d.Bound && !allBeat:
		r.Verdict = "unresolved"
	default:
		r.Verdict = "ok"
	}
	return r
}

// relative is x as a fraction of |base|; against a zero base any
// nonzero x is infinitely large.
func relative(x, base float64) float64 {
	if x == 0 {
		return 0
	}
	if base == 0 {
		return math.Copysign(math.Inf(1), x)
	}
	return x / math.Abs(base)
}

// quantile is the q-quantile of sorted values, interpolated linearly
// between the two nearest ranks.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// git runs a git command and returns its trimmed standard output.
func git(args ...string) (string, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchab:", err)
	return 1
}
