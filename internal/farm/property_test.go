package farm

// The farm's completion-order property: a farm is a one-stage pipeline
// whose exit, in unordered mode, hands batches on as they finish. For
// any worker count, batch size, and cancel point, each result arrives
// at most once and is a value of the sequential map; a run that is not
// cancelled delivers exactly the sequential map's multiset (and, in
// ordered mode, its sequence). Runs under -race in its own named CI
// step.

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestFarmCompletionOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	const items = 300
	fn := func(_ context.Context, v any) (any, error) {
		i := v.(int)
		if i%7 == 0 {
			time.Sleep(time.Duration(i%3) * 50 * time.Microsecond)
		}
		return 3*i + 1, nil
	}
	for trial := 0; trial < 24; trial++ {
		workers := []int{1, 2, 8}[r.Intn(3)]
		batch := []int{1, 3, 16}[r.Intn(3)]
		unordered := trial%2 == 0
		cancelAt := 0 // 0: run to completion
		if r.Intn(3) > 0 {
			cancelAt = 1 + r.Intn(items-1)
		}
		f, err := New(fn, Options{Workers: workers, Batch: batch, Unordered: unordered})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		in := make(chan any)
		out, errs := f.Run(ctx, in)
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
		seen := make([]bool, items)
		var got []int
		for v := range out {
			x := v.(int)
			if (x-1)%3 != 0 || x < 1 || (x-1)/3 >= items {
				t.Fatalf("trial %d (workers %d batch %d unordered %v): %d is not a value of the map",
					trial, workers, batch, unordered, x)
			}
			i := (x - 1) / 3
			if seen[i] {
				t.Fatalf("trial %d (workers %d batch %d unordered %v): result of %d delivered twice",
					trial, workers, batch, unordered, i)
			}
			seen[i] = true
			got = append(got, i)
			if len(got) == cancelAt {
				cancel()
			}
		}
		err = <-errs
		cancel()
		if cancelAt > 0 {
			if err != nil && err != context.Canceled {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d (workers %d batch %d unordered %v): %v", trial, workers, batch, unordered, err)
		}
		if len(got) != items {
			t.Fatalf("trial %d (workers %d batch %d unordered %v): %d results, want %d",
				trial, workers, batch, unordered, len(got), items)
		}
		if unordered {
			sort.Ints(got)
		}
		for k, i := range got {
			if i != k {
				t.Fatalf("trial %d (workers %d batch %d unordered %v): result %d is f(%d), want f(%d)",
					trial, workers, batch, unordered, k, i, k)
			}
		}
	}
}

// TestSetBatchMidRunFromGrainOne: a farm built at Batch 1 — in either
// order — accepts SetBatch mid-run, which the live controller's grain
// actuator relies on, and the ordered farm keeps its order across the
// change.
func TestSetBatchMidRunFromGrainOne(t *testing.T) {
	const items = 2000
	for _, unordered := range []bool{false, true} {
		f, err := New(double, Options{Workers: 3, Unordered: unordered})
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan any)
		out, errs := f.Run(context.Background(), in)
		setErr := make(chan error, 1)
		go func() {
			defer close(in)
			for i := 0; i < items; i++ {
				in <- i
				if i == items/2 {
					setErr <- f.SetBatch(4)
				}
			}
		}()
		var got []int
		for v := range out {
			got = append(got, v.(int))
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if err := <-setErr; err != nil {
			t.Fatalf("unordered=%v: SetBatch(4) mid-run: %v", unordered, err)
		}
		if b := f.Batch(); b != 4 {
			t.Fatalf("unordered=%v: Batch() = %d after SetBatch(4)", unordered, b)
		}
		if len(got) != items {
			t.Fatalf("unordered=%v: %d results, want %d", unordered, len(got), items)
		}
		if unordered {
			sort.Ints(got)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("unordered=%v: result %d = %d, want %d", unordered, i, v, 2*i)
			}
		}
	}
}
