package workload

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestTraceFromCSVLongLayout(t *testing.T) {
	in := `t,app,items,weight,floor
0.5,genome,20,2,1
1.25,image,10,,
3.0,video,5,0.5,2
`
	tr, err := TraceFromCSV(strings.NewReader(in), CSVTraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := Trace{
		{T: 0.5, App: "genome", Items: 20, Weight: 2, Floor: 1},
		{T: 1.25, App: "image", Items: 10},
		{T: 3.0, App: "video", Items: 5, Weight: 0.5, Floor: 2},
	}
	if len(tr) != len(want) {
		t.Fatalf("got %d events, want %d", len(tr), len(want))
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Errorf("event %d: got %+v want %+v", i, tr[i], want[i])
		}
	}
}

func TestTraceFromCSVLongDefaultsAndSorting(t *testing.T) {
	// No app/items columns: rows fall back to the options' app and
	// item count. Out-of-order rows are sorted by time on import.
	in := "time\n4.0\n1.0\n2.5\n"
	tr, err := TraceFromCSV(strings.NewReader(in), CSVTraceOptions{App: "image", Items: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 3 {
		t.Fatalf("got %d events, want 3", len(tr))
	}
	prev := math.Inf(-1)
	for i, ev := range tr {
		if ev.T < prev {
			t.Fatalf("event %d out of order: %v after %v", i, ev.T, prev)
		}
		prev = ev.T
		if ev.App != "image" || ev.Items != 7 {
			t.Errorf("event %d: got %+v, want image/7 defaults", i, ev)
		}
	}
}

func TestTraceFromCSVWideLayout(t *testing.T) {
	// invitro/Azure shape: metadata columns then per-minute buckets.
	// Bucket 1 holds 2 invocations, bucket 3 holds 1; counts expand to
	// evenly spaced arrivals inside their bucket.
	in := `HashOwner,HashFunction,Trigger,1,2,3
o1,f1,http,2,0,1
`
	tr, err := TraceFromCSV(strings.NewReader(in), CSVTraceOptions{App: "genome", Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantT := []float64{20, 40, 150} // 60/3, 2*60/3, 120+60/2
	if len(tr) != len(wantT) {
		t.Fatalf("got %d events, want %d: %+v", len(tr), len(wantT), tr)
	}
	for i, ev := range tr {
		if math.Abs(ev.T-wantT[i]) > 1e-9 {
			t.Errorf("event %d at t=%v, want %v", i, ev.T, wantT[i])
		}
		if ev.App != "genome" || ev.Items != 4 {
			t.Errorf("event %d: got %+v, want genome/4", i, ev)
		}
	}
}

func TestTraceFromCSVWideBucketSeconds(t *testing.T) {
	in := "f,1,2\nx,1,1\n"
	tr, err := TraceFromCSV(strings.NewReader(in), CSVTraceOptions{BucketSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || math.Abs(tr[0].T-5) > 1e-9 || math.Abs(tr[1].T-15) > 1e-9 {
		t.Fatalf("got %+v, want arrivals at t=5 and t=15", tr)
	}
}

func TestTraceFromCSVWideMergesRows(t *testing.T) {
	// Two functions invoking in the same bucket interleave by time.
	in := "f,1\nx,1\ny,2\n"
	tr, err := TraceFromCSV(strings.NewReader(in), CSVTraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 3 {
		t.Fatalf("got %d events, want 3", len(tr))
	}
	prev := math.Inf(-1)
	for i, ev := range tr {
		if ev.T < prev {
			t.Fatalf("event %d out of order", i)
		}
		prev = ev.T
	}
}

func TestTraceFromCSVErrors(t *testing.T) {
	cases := map[string]struct {
		in   string
		opts CSVTraceOptions
	}{
		"no time column":   {in: "a,b\n1,2\n", opts: CSVTraceOptions{}},
		"bad time":         {in: "t\nnope\n", opts: CSVTraceOptions{}},
		"negative time":    {in: "t\n-1\n", opts: CSVTraceOptions{}},
		"infinite time":    {in: "t\ninf\n", opts: CSVTraceOptions{}},
		"NaN weight":       {in: "t,weight\n1,NaN\n", opts: CSVTraceOptions{}},
		"unknown app":      {in: "t,app\n1,bogus\n", opts: CSVTraceOptions{}},
		"unknown opts app": {in: "t\n1\n", opts: CSVTraceOptions{App: "bogus"}},
		"bad items":        {in: "t,items\n1,x\n", opts: CSVTraceOptions{}},
		"bad bucket count": {in: "f,1\nx,-3\n", opts: CSVTraceOptions{}},
		"too many events":  {in: "f,1\nx,9\n", opts: CSVTraceOptions{MaxEvents: 4}},
		"long event cap":   {in: "t\n1\n2\n3\n", opts: CSVTraceOptions{MaxEvents: 2}},
		"ragged row":       {in: "t,app\n1\n", opts: CSVTraceOptions{}},
	}
	for name, tc := range cases {
		if _, err := TraceFromCSV(strings.NewReader(tc.in), tc.opts); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	// A cell far above the cap is rejected before it is expanded: the
	// import must not allocate the cell's arrivals first.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := TraceFromCSV(strings.NewReader("f,1,2\nx,3,1000000\n"), CSVTraceOptions{MaxEvents: 10})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("huge bucket cell: expected error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("huge bucket cell: import allocated %d bytes before failing, want the cap checked first", grew)
	}
}

func TestTraceFromCSVFeedsJobSpecs(t *testing.T) {
	in := "t,app,items\n0,genome,5\n1,image,3\n"
	tr, err := TraceFromCSV(strings.NewReader(in), CSVTraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tr.JobSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Items != 5 || specs[1].Items != 3 {
		t.Fatalf("unexpected specs %+v", specs)
	}
}

func TestScaleTime(t *testing.T) {
	tr := Trace{{T: 1, App: "genome", Items: 2}, {T: 3, App: "genome", Items: 4}}
	scaled, err := tr.ScaleTime(2)
	if err != nil {
		t.Fatal(err)
	}
	if scaled[0].T != 2 || scaled[1].T != 6 {
		t.Fatalf("got %+v, want times doubled", scaled)
	}
	if tr[0].T != 1 {
		t.Fatal("ScaleTime mutated its receiver")
	}
	if tr.Span() != 3 || tr.TotalItems() != 6 {
		t.Fatalf("Span/TotalItems: got %v/%d", tr.Span(), tr.TotalItems())
	}
	if _, err := tr.ScaleTime(0); err == nil {
		t.Fatal("expected error for zero factor")
	}
	if _, err := tr.ScaleTime(-1); err == nil {
		t.Fatal("expected error for negative factor")
	}
}
