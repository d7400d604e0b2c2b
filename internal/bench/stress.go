package bench

// The RPS stress ramp behind `pipebench -stress`: walk offered load
// upward in steps, drive each step's open-loop job stream through a
// fresh admission-controlled cluster, and locate the throughput knee —
// the offered rate past which added load buys queueing instead of
// throughput. `pipebench -stress` prints it (see DESIGN.md, "Traffic
// engine").

import (
	"fmt"

	"gridpipe/internal/cluster"
	"gridpipe/internal/grid"
	"gridpipe/internal/rng"
	"gridpipe/internal/stats"
	"gridpipe/internal/workload"
)

// StressConfig tunes the ramp.
type StressConfig struct {
	// Nodes is the simulated grid size (default 8 homogeneous nodes).
	Nodes int
	// App is the bundled workload every job runs (default genome).
	App string
	// Process is the arrival-process family for the per-step job
	// streams (workload.NewArrival names; default poisson).
	Process string
	// ItemsPerJob is the per-job item count (default 20).
	ItemsPerJob int
	// StartRPS and StepRPS define the offered-load ramp in items/s:
	// step i offers StartRPS + i·StepRPS (defaults 4 and 4).
	StartRPS, StepRPS float64
	// Steps is the ramp length (default 8).
	Steps int
	// Horizon is the arrival window per step in virtual seconds
	// (default 240; the cluster then drains the backlog). Long windows
	// matter: the per-step job count must be large enough that
	// arrival-count noise (±1/sqrt(jobs)) does not fake a knee in the
	// unsaturated region.
	Horizon float64
	// KneeWindow and KneeFrac tune the detector (stats.KneeIndex;
	// defaults 2 and 0.5).
	KneeWindow int
	KneeFrac   float64
	// Seed drives every step's derived randomness.
	Seed uint64
	// Trace, when non-empty, replaces the generated per-step streams:
	// each step replays this recorded trace with arrival times rescaled
	// so its offered load matches the step's, preserving the recorded
	// burst structure (see workload.TraceFromCSV and Trace.ScaleTime).
	// Process, ItemsPerJob, and Horizon are ignored in replay mode.
	Trace workload.Trace
}

func (c *StressConfig) fillDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.App == "" {
		c.App = "genome"
	}
	if c.Process == "" {
		c.Process = "poisson"
	}
	if c.ItemsPerJob <= 0 {
		c.ItemsPerJob = 20
	}
	if c.StartRPS <= 0 {
		c.StartRPS = 4
	}
	if c.StepRPS <= 0 {
		c.StepRPS = 4
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	if c.Horizon <= 0 {
		c.Horizon = 240
	}
	if c.KneeWindow <= 0 {
		c.KneeWindow = 2
	}
	if c.KneeFrac <= 0 || c.KneeFrac >= 1 {
		c.KneeFrac = 0.5
	}
}

// StressStep is one offered-load level's measurement.
type StressStep struct {
	// OfferedRPS is the step's offered load in items/s; AchievedRPS is
	// the measured sustained throughput (items completed over the
	// cluster makespan).
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	// Jobs is the number of job arrivals the step's stream produced;
	// Items the total items across them.
	Jobs  int `json:"jobs"`
	Items int `json:"items"`
	// MeanWaitSec is the mean admission-queue delay — the congestion
	// signal that explodes past the knee.
	MeanWaitSec float64 `json:"mean_wait_s"`
	// MakespanSec is the virtual time to drain the step's stream.
	MakespanSec float64 `json:"makespan_s"`
}

// StressResult is one RPS ramp: the `stress` section of a -benchout report.
type StressResult struct {
	Nodes       int          `json:"nodes"`
	App         string       `json:"app"`
	Process     string       `json:"process"`
	ItemsPerJob int          `json:"items_per_job"`
	HorizonSec  float64      `json:"horizon_s"`
	Seed        uint64       `json:"seed"`
	Steps       []StressStep `json:"steps"`
	// KneeIndex is the first saturated step (stats.KneeIndex; -1 = no
	// knee detected), and KneeRPS that step's offered load.
	KneeIndex int     `json:"knee_index"`
	KneeRPS   float64 `json:"knee_rps,omitempty"`
}

// StressRamp runs the ramp: per step, an open-loop stream of App jobs
// with Poisson-or-chosen arrivals at the step's offered rate is
// generated as a trace, replayed into a fresh admission-queued
// cluster, and the sustained throughput measured; the knee detector
// then walks the (offered, achieved) curve. Deterministic in
// cfg.Seed: each step derives its own keyed sub-stream.
func StressRamp(cfg StressConfig) (*StressResult, error) {
	cfg.fillDefaults()
	if _, err := workload.ByName(cfg.App); err != nil {
		return nil, err
	}
	replay := len(cfg.Trace) > 0
	var nativeRPS float64
	if replay {
		span, items := cfg.Trace.Span(), cfg.Trace.TotalItems()
		if span <= 0 {
			return nil, fmt.Errorf("bench: stress replay trace has zero span")
		}
		nativeRPS = float64(items) / span
		cfg.Process = "trace-replay"
		cfg.Horizon = span
	}
	res := &StressResult{
		Nodes:       cfg.Nodes,
		App:         cfg.App,
		Process:     cfg.Process,
		ItemsPerJob: cfg.ItemsPerJob,
		HorizonSec:  cfg.Horizon,
		Seed:        cfg.Seed,
		KneeIndex:   -1,
	}
	mix := []workload.MixEntry{{App: cfg.App, Share: 1, Items: cfg.ItemsPerJob}}
	for i := 0; i < cfg.Steps; i++ {
		offered := cfg.StartRPS + float64(i)*cfg.StepRPS
		stepSeed := rng.SeedFor(cfg.Seed, uint64(i))
		var tr workload.Trace
		var err error
		if replay {
			// Stretch or compress the recorded stream until its offered
			// rate matches this step's; burst structure is preserved.
			tr, err = cfg.Trace.ScaleTime(nativeRPS / offered)
		} else {
			// Offered items/s → job arrivals/s at ItemsPerJob items each.
			var proc workload.ArrivalProcess
			proc, err = workload.NewArrival(cfg.Process, offered/float64(cfg.ItemsPerJob), stepSeed)
			if err == nil {
				tr, err = workload.GenerateTrace(proc, mix, cfg.Horizon, stepSeed)
			}
		}
		if err != nil {
			return nil, err
		}
		step := StressStep{OfferedRPS: offered}
		if len(tr) > 0 {
			g, err := grid.Homogeneous(cfg.Nodes, 1, grid.LANLink)
			if err != nil {
				return nil, err
			}
			cl, err := cluster.New(g, cluster.Config{Seed: stepSeed, Admission: cluster.AdmitQueue})
			if err != nil {
				return nil, err
			}
			if _, err := cl.SubmitTrace(tr); err != nil {
				return nil, fmt.Errorf("bench: stress step %d: %w", i, err)
			}
			rep, err := cl.Run()
			if err != nil {
				return nil, fmt.Errorf("bench: stress step %d: %w", i, err)
			}
			done := 0
			waitSum := 0.0
			for _, jr := range rep.Jobs {
				done += jr.Done
				waitSum += jr.Waited
			}
			step.Jobs = len(rep.Jobs)
			for _, ev := range tr {
				step.Items += ev.Items
			}
			step.MakespanSec = rep.Makespan
			if len(rep.Jobs) > 0 {
				step.MeanWaitSec = waitSum / float64(len(rep.Jobs))
			}
			if rep.Makespan > 0 {
				step.AchievedRPS = float64(done) / rep.Makespan
			}
		}
		res.Steps = append(res.Steps, step)
	}
	offered := make([]float64, len(res.Steps))
	achieved := make([]float64, len(res.Steps))
	for i, s := range res.Steps {
		offered[i] = s.OfferedRPS
		achieved[i] = s.AchievedRPS
	}
	res.KneeIndex = stats.KneeIndex(offered, achieved, cfg.KneeWindow, cfg.KneeFrac)
	if res.KneeIndex >= 0 {
		res.KneeRPS = res.Steps[res.KneeIndex].OfferedRPS
	}
	return res, nil
}

// StressTable renders the ramp as a table for the pipebench console
// output.
func StressTable(res *StressResult) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("stress ramp: %s × %d-item jobs, %s arrivals, %d nodes, %.0f s windows",
			res.App, res.ItemsPerJob, res.Process, res.Nodes, res.HorizonSec),
		"offered rps", "achieved rps", "jobs", "items", "mean wait", "makespan", "knee")
	for i, s := range res.Steps {
		knee := ""
		if i == res.KneeIndex {
			knee = "<-- knee"
		}
		tb.AddRowf(s.OfferedRPS, s.AchievedRPS, s.Jobs, s.Items, s.MeanWaitSec, s.MakespanSec, knee)
	}
	if res.KneeIndex < 0 {
		tb.AddNote("no knee detected: the ramp never saturated (raise -stress-steps or -stress-step)")
	} else {
		tb.AddNote("knee at %.4g offered items/s: past it added load buys queueing, not throughput", res.KneeRPS)
	}
	return tb
}
