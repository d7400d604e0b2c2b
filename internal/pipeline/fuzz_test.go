package pipeline

import (
	"context"
	"testing"
	"time"

	"gridpipe/internal/topo"
)

// fuzzStageFn passes the first part through at a fan-in, so every
// stage sees an int, and leaves a per-stage fingerprint on it.
func fuzzStageFn(id int) Func {
	return func(_ context.Context, v any) (any, error) {
		if parts, ok := v.([]any); ok {
			v = parts[0]
		}
		return v.(int)*3 + id, nil
	}
}

// decodeEdgeGrains reads a stage graph and a grain vector from fuzz
// bytes: data[0] picks 1..6 stages, data[1] 0..8 edges, each edge takes
// two bytes (folded onto forward edges, so From < To holds but
// duplicates and unreachable stages still occur), and every remaining
// byte up to 1+edges is a grain in 0..71 (0 and short vectors are
// invalid on purpose).
func decodeEdgeGrains(data []byte) ([]Stage, []topo.Edge, []int) {
	if len(data) < 2 {
		return nil, nil, nil
	}
	n := 1 + int(data[0]%6)
	m := int(data[1] % 9)
	if n == 1 {
		m = 0
	}
	data = data[2:]
	stages := make([]Stage, n)
	for i := range stages {
		stages[i] = Stage{Name: "s", Fn: fuzzStageFn(i), Replicas: 1 + i%3, Buffer: 2}
	}
	var edges []topo.Edge
	for ; m > 0 && len(data) >= 2; m-- {
		from := int(data[0]) % (n - 1)
		to := from + 1 + int(data[1])%(n-1-from)
		edges = append(edges, topo.Edge{From: from, To: to})
		data = data[2:]
	}
	var grains []int
	for _, b := range data {
		if len(grains) == 1+len(edges) {
			break
		}
		grains = append(grains, int(b%72))
	}
	return stages, edges, grains
}

// FuzzEnableBatchEdges builds a pipeline from a fuzzed stage graph and
// arms it with a fuzzed per-edge grain vector. Neither NewGraph nor
// EnableBatchEdges may panic; when both accept, Process of 16 ints
// returns the sequential reference in order.
func FuzzEnableBatchEdges(f *testing.F) {
	f.Add([]byte{0, 0, 1})                                     // one stage
	f.Add([]byte{2, 2, 0, 0, 1, 0, 1, 4, 16})                  // chain 0→1→2, re-slabbing bridges
	f.Add([]byte{2, 2, 0, 0, 1, 0, 70, 1, 3})                  // chain, head coarser than the items
	f.Add([]byte{3, 4, 0, 0, 0, 1, 1, 1, 2, 0, 8, 8, 8, 8, 8}) // diamond, uniform grain
	f.Add([]byte{3, 4, 0, 0, 0, 1, 1, 1, 2, 0, 8, 8, 4, 8, 8}) // diamond, non-bridge edge mismatch
	f.Add([]byte{2, 2, 0, 0, 0, 0, 1, 1, 1})                   // duplicate edge
	f.Add([]byte{2, 1, 0, 1, 1, 1})                            // stage 1 unreachable
	f.Add([]byte{1, 1, 0, 0, 0, 4})                            // zero grain
	f.Add([]byte{1, 1, 0, 0, 5})                               // short grain vector
	f.Fuzz(func(t *testing.T, data []byte) {
		stages, edges, grains := decodeEdgeGrains(data)
		if stages == nil {
			return
		}
		p, err := NewGraph(stages, edges)
		if err != nil {
			return
		}
		if err := p.EnableBatchEdges(grains, time.Millisecond); err != nil {
			return
		}
		const items = 16
		inputs := make([]any, items)
		for i := range inputs {
			inputs[i] = i
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		got, err := p.Process(ctx, inputs)
		if err != nil {
			t.Fatalf("edges %v grains %v: %v", edges, grains, err)
		}
		for i, v := range got {
			if want := propExpected(stages, edges, i); v.(int) != want {
				t.Fatalf("edges %v grains %v output %d: got %v want %d", edges, grains, i, v, want)
			}
		}
	})
}
