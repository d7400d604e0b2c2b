package bench

// The grain sweep: throughput and p99 item latency of the live
// replicated-stage boundary as a function of batch size. It is the
// repository's direct measurement of the paper's granularity
// trade-off — larger grains amortize per-transfer synchronization
// (throughput rises towards a plateau) while the head batcher's fill
// time adds sojourn latency (p99 rises, capped by the linger flush).
// pipebench prints the sweep with -grainsweep.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gridpipe/internal/pipeline"
)

// GrainPoint is one grain's measurement.
type GrainPoint struct {
	Grain int `json:"grain"`
	// ItemsPerSec is the saturated (unpaced) boundary throughput.
	ItemsPerSec float64 `json:"items_per_s"`
	// P99LatencyNs is the 99th-percentile item sojourn (send→receive)
	// under a paced feed at roughly a fifth of the unbatched
	// boundary's capacity, where batching delay — not queueing — is
	// what the percentile sees.
	P99LatencyNs float64 `json:"p99_latency_ns"`
}

// GrainSweepConfig tunes GrainSweep. Zero values pick the defaults.
type GrainSweepConfig struct {
	// Grains is the batch-size ladder (default 1,2,4,...,256; 1 runs
	// a pipeline without EnableBatch and anchors the comparison).
	Grains []int
	// Items per throughput measurement (default 200_000).
	Items int
	// Linger is the head batcher's partial-batch timeout
	// (default pipeline.DefaultLinger).
	Linger time.Duration
	// PaceNs is the paced feed's inter-arrival gap for the latency
	// measurement in nanoseconds (default 8000 ≈ 125k items/s).
	PaceNs int64
}

func (c *GrainSweepConfig) fillDefaults() {
	if len(c.Grains) == 0 {
		c.Grains = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	if c.Items <= 0 {
		c.Items = 200_000
	}
	if c.Linger <= 0 {
		c.Linger = pipeline.DefaultLinger
	}
	if c.PaceNs <= 0 {
		c.PaceNs = 8000
	}
}

// boundaryPipeline builds the sweep's measurement subject: the same
// 8-replica identity stage the pipeline/reorder_stage and
// pipeline/batch_boundary micros run, batched when grain > 1.
func boundaryPipeline(grain int, linger time.Duration) (*pipeline.Pipeline, error) {
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	p, err := pipeline.New(pipeline.Stage{Name: "r", Fn: ident, Replicas: 8, Buffer: 64})
	if err != nil {
		return nil, err
	}
	if grain > 1 {
		if err := p.EnableBatch(grain, linger); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// GrainSweep measures every grain on the ladder twice: an unpaced run
// for saturated throughput and a paced run for p99 sojourn.
func GrainSweep(cfg GrainSweepConfig) ([]GrainPoint, error) {
	cfg.fillDefaults()
	out := make([]GrainPoint, 0, len(cfg.Grains))
	for _, grain := range cfg.Grains {
		if grain < 1 {
			return nil, fmt.Errorf("bench: grain %d below 1", grain)
		}
		tput, err := grainThroughput(grain, cfg)
		if err != nil {
			return nil, err
		}
		p99, err := grainP99(grain, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, GrainPoint{Grain: grain, ItemsPerSec: tput, P99LatencyNs: p99})
	}
	return out, nil
}

func grainThroughput(grain int, cfg GrainSweepConfig) (float64, error) {
	p, err := boundaryPipeline(grain, cfg.Linger)
	if err != nil {
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
		return 0, fmt.Errorf("bench: grain %d lost items (%d of %d)", grain, count, cfg.Items)
	}
	return float64(count) / elapsed.Seconds(), nil
}

// grainP99 paces arrivals at one item per PaceNs (spin-paced: sleep
// granularity swamps microsecond gaps) and measures each item's
// send→receive sojourn. Ordered delivery means output i is input i, so
// send timestamps index directly.
func grainP99(grain int, cfg GrainSweepConfig) (float64, error) {
	items := cfg.Items / 10
	if items < 2000 {
		items = 2000
	}
	p, err := boundaryPipeline(grain, cfg.Linger)
	if err != nil {
		return 0, err
	}
	sendNs := make([]int64, items)
	sojournNs := make([]int64, 0, items)
	in := make(chan any, 1)
	out, errs := p.Run(context.Background(), in)
	epoch := time.Now()
	go func() {
		gap := cfg.PaceNs
		for i := 0; i < items; i++ {
			due := int64(i) * gap
			for time.Since(epoch).Nanoseconds() < due {
				// Yield-paced: the gap is far below sleep granularity,
				// and a hard spin would starve the stage workers of the
				// CPU on a single-core runner.
				runtime.Gosched()
			}
			sendNs[i] = time.Since(epoch).Nanoseconds()
			in <- nil
		}
		close(in)
	}()
	i := 0
	for range out {
		sojournNs = append(sojournNs, time.Since(epoch).Nanoseconds()-sendNs[i])
		i++
	}
	if err := <-errs; err != nil {
		return 0, err
	}
	if i != items {
		return 0, fmt.Errorf("bench: grain %d paced run lost items (%d of %d)", grain, i, items)
	}
	sort.Slice(sojournNs, func(a, b int) bool { return sojournNs[a] < sojournNs[b] })
	idx := (len(sojournNs)*99 + 99) / 100
	if idx >= len(sojournNs) {
		idx = len(sojournNs) - 1
	}
	return float64(sojournNs[idx]), nil
}
