package model

import (
	"testing"

	"gridpipe/internal/grid"
)

func TestMappingConstructors(t *testing.T) {
	m := SingleNode(3, 2)
	if m.NumStages() != 3 {
		t.Fatalf("NumStages = %d", m.NumStages())
	}
	for i := 0; i < 3; i++ {
		if len(m.Assign[i]) != 1 || m.Assign[i][0] != 2 {
			t.Fatalf("stage %d: %v", i, m.Assign[i])
		}
	}
	o := OneToOne(4)
	for i := 0; i < 4; i++ {
		if o.Assign[i][0] != grid.NodeID(i) {
			t.Fatalf("OneToOne stage %d on %d", i, o.Assign[i][0])
		}
	}
	f := FromNodes(0, 0, 1)
	if f.Assign[1][0] != 0 || f.Assign[2][0] != 1 {
		t.Fatalf("FromNodes wrong: %v", f)
	}
}

func TestContiguous(t *testing.T) {
	m := Contiguous([]int{2, 1}, []grid.NodeID{3, 5})
	if m.NumStages() != 3 {
		t.Fatalf("NumStages = %d", m.NumStages())
	}
	if m.Assign[0][0] != 3 || m.Assign[1][0] != 3 || m.Assign[2][0] != 5 {
		t.Fatalf("Contiguous wrong: %v", m)
	}
	for _, bad := range []func(){
		func() { Contiguous([]int{1}, []grid.NodeID{1, 2}) },
		func() { Contiguous([]int{0}, []grid.NodeID{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestWithReplicasDoesNotAliasOriginal(t *testing.T) {
	m := FromNodes(0, 1, 2)
	r := m.WithReplicas(1, 1, 3)
	if len(r.Assign[1]) != 2 {
		t.Fatalf("replicas not applied: %v", r)
	}
	if len(m.Assign[1]) != 1 {
		t.Fatal("WithReplicas mutated the original")
	}
	r.Assign[0][0] = 9
	if m.Assign[0][0] == 9 {
		t.Fatal("Clone is shallow")
	}
}

func TestMappingValidate(t *testing.T) {
	if err := FromNodes(0, 1).Validate(2, 2); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	cases := []struct {
		name string
		m    Mapping
		ns   int
		np   int
	}{
		{"wrongStageCount", FromNodes(0), 2, 2},
		{"emptyStage", Mapping{Assign: [][]grid.NodeID{{}}}, 1, 2},
		{"badNode", FromNodes(5), 1, 2},
		{"negativeNode", FromNodes(-1), 1, 2},
		{"duplicateReplica", Mapping{Assign: [][]grid.NodeID{{0, 0}}}, 1, 2},
	}
	for _, c := range cases {
		if err := c.m.Validate(c.ns, c.np); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMappingEqualAndString(t *testing.T) {
	a := FromNodes(0, 1, 1)
	b := FromNodes(0, 1, 1)
	if !a.Equal(b) {
		t.Fatal("identical mappings not Equal")
	}
	if a.Equal(FromNodes(0, 1)) || a.Equal(FromNodes(0, 1, 2)) {
		t.Fatal("different mappings Equal")
	}
	if a.Equal(a.WithReplicas(2, 1, 2)) {
		t.Fatal("replicated mapping Equal to plain")
	}
	if got := a.String(); got != "(0,1,1)" {
		t.Fatalf("String = %q", got)
	}
	if got := a.WithReplicas(1, 1, 2).String(); got != "(0,{1,2},1)" {
		t.Fatalf("replicated String = %q", got)
	}
}

func TestNodesUsed(t *testing.T) {
	m := FromNodes(0, 2, 0).WithReplicas(1, 2, 3)
	used := m.NodesUsed()
	want := map[grid.NodeID]bool{0: true, 2: true, 3: true}
	if len(used) != 3 {
		t.Fatalf("NodesUsed = %v", used)
	}
	for _, n := range used {
		if !want[n] {
			t.Fatalf("unexpected node %d", n)
		}
	}
}

// VisitMappings enumerates every mapping exactly once: np^ns valid,
// distinct candidates.
func TestVisitMappingsEnumeratesAll(t *testing.T) {
	seen := map[string]bool{}
	count := 0
	err := VisitMappings(3, []grid.NodeID{0, 1}, func(m Mapping) bool {
		if err := m.Validate(3, 2); err != nil {
			t.Fatalf("invalid enumerated mapping %s: %v", m, err)
		}
		s := m.String()
		if seen[s] {
			t.Fatalf("duplicate mapping %s", s)
		}
		seen[s] = true
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("count = %d, want 8", count)
	}
	if !seen["(0,0,0)"] || !seen["(1,1,1)"] || !seen["(0,1,0)"] {
		t.Fatalf("missing expected mappings: %v", seen)
	}
}

// VisitMappings streams candidates in odometer order (stage 0 slowest,
// the last stage fastest), reusing one Mapping, and honours an early
// stop.
func TestVisitMappingsOrder(t *testing.T) {
	nodes := []grid.NodeID{0, 2, 3}
	var want []string
	for _, a := range nodes {
		for _, b := range nodes {
			for _, c := range nodes {
				want = append(want, Mapping{Assign: [][]grid.NodeID{{a}, {b}, {c}}}.String())
			}
		}
	}
	i := 0
	var prev Mapping
	err := VisitMappings(3, nodes, func(m Mapping) bool {
		if i >= len(want) {
			t.Fatalf("visitor saw more than %d mappings", len(want))
		}
		if m.String() != want[i] {
			t.Fatalf("candidate %d = %s, want %s", i, m, want[i])
		}
		if i > 0 && &m.Assign[0][0] != &prev.Assign[0][0] {
			t.Fatal("visitor candidate is not reusing its backing storage")
		}
		prev = m
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("visited %d of %d mappings", i, len(want))
	}

	// Early stop.
	count := 0
	if err := VisitMappings(3, nodes, func(Mapping) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}

	// Errors on degenerate dimensions instead of panicking.
	if err := VisitMappings(0, nodes, func(Mapping) bool { return true }); err == nil {
		t.Fatal("expected an error for zero stages")
	}
	if err := VisitMappings(2, nil, func(Mapping) bool { return true }); err == nil {
		t.Fatal("expected an error for no nodes")
	}
}
