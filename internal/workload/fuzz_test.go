package workload

import (
	"strings"
	"testing"
)

// fuzzMaxEvents caps every fuzzed import, so no input can expand into
// more arrivals than memory comfortably holds.
const fuzzMaxEvents = 10_000

// FuzzTraceFromCSV feeds arbitrary text through the CSV trace importer
// (layout detection, long and wide parsing, the event cap, sorting and
// validation). It must error cleanly on anything malformed and never
// panic; a trace it accepts is sorted by arrival time, valid, and
// within the cap.
func FuzzTraceFromCSV(f *testing.F) {
	seeds := []string{
		// Long layout: full columns, defaults, out-of-order rows.
		"t,app,items,weight,floor\n0.5,genome,20,2,1\n1.25,image,10,,\n3.0,video,5,0.5,2\n",
		"time\n4.0\n1.0\n2.5\n",
		"t,app,items\n0,genome,5\n1,image,3\n",
		// Wide layout: metadata columns then buckets, merged rows.
		"HashOwner,HashFunction,Trigger,1,2,3\no1,f1,http,2,0,1\n",
		"f,1,2\nx,1,1\n",
		"f,1\nx,1\ny,2\n",
		// The error cases.
		"a,b\n1,2\n",
		"t\nnope\n",
		"t\n-1\n",
		"t,app\n1,bogus\n",
		"t,items\n1,x\n",
		"f,1\nx,-3\n",
		"f,1\nx,9\n",
		"t\n1\n2\n3\n",
		"t,app\n1\n",
		"f,1,2\nx,3,1000000\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := TraceFromCSV(strings.NewReader(in), CSVTraceOptions{MaxEvents: fuzzMaxEvents})
		if err != nil {
			return // malformed input must simply error
		}
		if len(tr) > fuzzMaxEvents {
			t.Fatalf("accepted %d events, cap is %d", len(tr), fuzzMaxEvents)
		}
		for i := 1; i < len(tr); i++ {
			if tr[i].T < tr[i-1].T {
				t.Fatalf("event %d at t=%v precedes event %d at t=%v", i, tr[i].T, i-1, tr[i-1].T)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails validation: %v", err)
		}
	})
}
