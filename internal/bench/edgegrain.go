package bench

// The per-edge grain sweep: live throughput of a two-stage pipeline
// whose boundaries carry independent grains (EnableBatchEdges), over
// the corner vectors of the [fine, coarse] lattice plus the vector
// sched.SearchGrainVector picks on an asymmetric model spec. The
// asymmetry is the interesting part: the head boundary has zero
// per-batch overhead (coarsening buys nothing and costs sojourn) while
// the stage 0→1 edge pays a heavy per-batch synchronization charge
// (coarsening amortizes it), so the model should land on a mixed
// vector — fine head, coarse edge — rather than a uniform grain.
// pipebench prints the result with -grainsweep.

import (
	"context"
	"fmt"
	"time"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/pipeline"
	"gridpipe/internal/sched"
)

// EdgeGrainPoint is one grain vector's live measurement.
type EdgeGrainPoint struct {
	// Grains is the boundary vector: grains[0] the head batcher,
	// grains[1] the stage 0→1 bridge edge.
	Grains []int `json:"grains"`
	// ItemsPerSec is the saturated live boundary throughput.
	ItemsPerSec float64 `json:"items_per_s"`
	// Chosen marks the vector sched.SearchGrainVector selected on the
	// asymmetric model spec.
	Chosen bool `json:"chosen,omitempty"`
}

// EdgeGrainResult is the sweep's machine-readable outcome.
type EdgeGrainResult struct {
	Points []EdgeGrainPoint `json:"points"`
	// Chosen is the grain vector the coordinate-descent search picked
	// on the asymmetric spec (head overhead 0, edge overhead heavy).
	Chosen []int `json:"chosen"`
	// PredictedItemsPerSec is the model's throughput at Chosen.
	PredictedItemsPerSec float64 `json:"predicted_items_per_s"`
}

// EdgeGrainSweepConfig tunes EdgeGrainSweep. Zero values pick the
// defaults.
type EdgeGrainSweepConfig struct {
	// Vectors are the boundary vectors to measure live (default the
	// four corners [1,1] [64,64] [1,64] [64,1]).
	Vectors [][]int
	// Items per throughput measurement (default 200_000).
	Items int
	// Linger is the batchers' partial-batch timeout (default
	// pipeline.DefaultLinger).
	Linger time.Duration
}

func (c *EdgeGrainSweepConfig) fillDefaults() {
	if len(c.Vectors) == 0 {
		c.Vectors = [][]int{{1, 1}, {64, 64}, {1, 64}, {64, 1}}
	}
	if c.Items <= 0 {
		c.Items = 200_000
	}
	if c.Linger <= 0 {
		c.Linger = pipeline.DefaultLinger
	}
}

// edgeGrainLadder caps the searched rungs at 64 so the chosen vector
// is comparable with the measured corners.
var edgeGrainLadder = []int{1, 2, 4, 8, 16, 32, 64}

// edgeGrainSpec is the asymmetric model instance the search runs on: a
// two-stage chain where batching is free at the head and expensive on
// the inter-stage edge, so the per-boundary optimum is mixed.
func edgeGrainSpec() model.PipelineSpec {
	spec := model.Balanced(2, 0.001, 100)
	spec.BatchOverheads = []float64{0, 0.05}
	return spec
}

// EdgeGrainSweep measures every configured boundary vector on a live
// two-stage pipeline and runs sched.SearchGrainVector on the
// asymmetric spec, measuring the chosen vector too when it is not
// already a corner.
func EdgeGrainSweep(cfg EdgeGrainSweepConfig) (*EdgeGrainResult, error) {
	cfg.fillDefaults()

	g, err := grid.Homogeneous(2, 1, grid.LANLink)
	if err != nil {
		return nil, err
	}
	chosen, _, pred, err := sched.SearchGrainVector(sched.Exhaustive{}, g, edgeGrainSpec(), nil, edgeGrainLadder)
	if err != nil {
		return nil, err
	}

	vectors := cfg.Vectors
	chosenIdx := -1
	for i, v := range vectors {
		if vecEqual(v, chosen) {
			chosenIdx = i
			break
		}
	}
	if chosenIdx < 0 {
		vectors = append(append([][]int(nil), vectors...), chosen)
		chosenIdx = len(vectors) - 1
	}

	res := &EdgeGrainResult{
		Chosen:               chosen,
		PredictedItemsPerSec: pred.Throughput,
	}
	for i, v := range vectors {
		tput, err := edgeGrainThroughput(v, cfg)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, EdgeGrainPoint{
			Grains:      append([]int(nil), v...),
			ItemsPerSec: tput,
			Chosen:      i == chosenIdx,
		})
	}
	return res, nil
}

// edgeGrainThroughput pushes Items through the two-stage identity
// pipeline armed with the given boundary vector and returns items/s.
func edgeGrainThroughput(grains []int, cfg EdgeGrainSweepConfig) (float64, error) {
	if len(grains) != 2 {
		return 0, fmt.Errorf("bench: edge grain vector %v must have 2 boundaries", grains)
	}
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	p, err := pipeline.New(
		pipeline.Stage{Name: "a", Fn: ident, Replicas: 4, Buffer: 64},
		pipeline.Stage{Name: "b", Fn: ident, Replicas: 4, Buffer: 64},
	)
	if err != nil {
		return 0, err
	}
	if err := p.EnableBatchEdges(grains, cfg.Linger); err != nil {
		return 0, err
	}
	in := make(chan any, 256)
	out, errs := p.Run(context.Background(), in)
	go func() {
		for i := 0; i < cfg.Items; i++ {
			in <- nil
		}
		close(in)
	}()
	t0 := time.Now()
	count := 0
	for range out {
		count++
	}
	elapsed := time.Since(t0)
	if err := <-errs; err != nil {
		return 0, err
	}
	if count != cfg.Items {
		return 0, fmt.Errorf("bench: edge grains %v lost items (%d of %d)", grains, count, cfg.Items)
	}
	return float64(count) / elapsed.Seconds(), nil
}

func vecEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
