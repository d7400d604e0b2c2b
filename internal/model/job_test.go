package model

import (
	"math"
	"strings"
	"testing"

	"gridpipe/internal/grid"
)

func validJob() JobSpec {
	return JobSpec{Name: "j", Spec: Balanced(2, 0.1, 0), Items: 10}
}

func TestJobSpecValidate(t *testing.T) {
	if err := validJob().Validate(4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"negative weight", func(j *JobSpec) { j.Weight = -1 }, "negative weight"},
		{"negative floor", func(j *JobSpec) { j.FloorNodes = -1 }, "negative floor"},
		{"floor over grid", func(j *JobSpec) { j.FloorNodes = 5 }, "exceeds"},
		{"negative arrival", func(j *JobSpec) { j.Arrival = -1 }, "arrival"},
		{"NaN arrival", func(j *JobSpec) { j.Arrival = math.NaN() }, "arrival"},
		{"+Inf arrival", func(j *JobSpec) { j.Arrival = math.Inf(1) }, "arrival"},
		{"NaN weight", func(j *JobSpec) { j.Weight = math.NaN() }, "non-finite weight"},
		{"+Inf weight", func(j *JobSpec) { j.Weight = math.Inf(1) }, "non-finite weight"},
		{"no items", func(j *JobSpec) { j.Items = 0 }, "item count"},
		{"empty pipeline", func(j *JobSpec) { j.Spec = PipelineSpec{} }, "no stages"},
	}
	for _, tc := range cases {
		j := validJob()
		tc.mut(&j)
		err := j.Validate(4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestJobSpecDefaults(t *testing.T) {
	j := JobSpec{}
	if j.NormWeight() != 1 || j.Floor() != 1 {
		t.Fatalf("zero-value defaults: weight=%v floor=%d, want 1/1", j.NormWeight(), j.Floor())
	}
	j.Weight, j.FloorNodes = 2.5, 3
	if j.NormWeight() != 2.5 || j.Floor() != 3 {
		t.Fatalf("explicit values not preserved: %v/%d", j.NormWeight(), j.Floor())
	}
}

func TestCapacityMask(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 2, 4}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCapacityMask(3)
	if m.Count() != 3 {
		t.Fatalf("full mask count=%d", m.Count())
	}
	if got := m.Capacity(g); got != 7 {
		t.Fatalf("capacity=%v, want 7 (speeds 1+2+4)", got)
	}
	m[1] = false
	if m.Count() != 2 || m.Capacity(g) != 5 {
		t.Fatalf("after dropping node 1: count=%d cap=%v", m.Count(), m.Capacity(g))
	}
	if got := m.String(); got != "{0,2}" {
		t.Fatalf("String=%q, want {0,2}", got)
	}
	other := CapacityMask{true, true, false}
	both := m.Intersect(other)
	if both.Count() != 1 || !both[0] {
		t.Fatalf("intersect={%v}, want only node 0", both)
	}
}
