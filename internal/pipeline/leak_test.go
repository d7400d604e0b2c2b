package pipeline_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gridpipe/internal/conc/steal"
	"gridpipe/internal/farm"
	"gridpipe/internal/pipeline"
)

// runner is what the leak test drives: a random-topology pipeline or a
// farm, the one-stage pipeline, in either order.
type runner interface {
	UseExecutor(*steal.Executor)
	Run(ctx context.Context, inputs <-chan any) (<-chan any, <-chan error)
}

// TestCancelLeavesNoGoroutines: a run cancelled mid-stream on a private
// executor leaves no goroutine behind once the executor is closed —
// every stage's dispatcher (the entry's head batcher included) and
// drainer, and the fan-in/fan-out goroutines all exit. The farm, in
// both orders, takes the same cycles as the stage graphs.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	const items = 400
	ident := func(_ context.Context, v any) (any, error) { return v, nil }
	for cycle := 0; cycle < 50; cycle++ {
		grain := []int{1, 16}[cycle%2]
		stages, edges := pipeline.RandTopology(r)
		subjects := []struct {
			desc  string
			build func() runner
		}{
			{fmt.Sprintf("pipeline edges %v", edges), func() runner { return pipeline.PropBuild(t, stages, edges, grain) }},
			{"ordered farm", func() runner { return newFarm(t, ident, grain, false) }},
			{"unordered farm", func() runner { return newFarm(t, ident, grain, true) }},
		}
		for _, sub := range subjects {
			cancelAt := 1 + r.Intn(items/2)
			before := runtime.NumGoroutine()

			ex := steal.New(2)
			p := sub.build()
			p.UseExecutor(ex)
			ctx, cancel := context.WithCancel(context.Background())
			in := make(chan any)
			out, errs := p.Run(ctx, in)
			go func() {
				defer close(in)
				for i := 0; i < items; i++ {
					select {
					case in <- i:
					case <-ctx.Done():
						return
					}
				}
			}()
			seen := 0
			for range out {
				seen++
				if seen == cancelAt {
					cancel()
				}
			}
			<-errs
			cancel()
			ex.Close()

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("cycle %d, %s (grain %d, cancel at %d): %d goroutines, %d before the run\n%s",
						cycle, sub.desc, grain, cancelAt, runtime.NumGoroutine(), before, buf)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func newFarm(t *testing.T, fn farm.Func, batch int, unordered bool) *farm.Farm {
	t.Helper()
	f, err := farm.New(fn, farm.Options{Workers: 1 + batch%3, Batch: batch, Unordered: unordered})
	if err != nil {
		t.Fatal(err)
	}
	return f
}
