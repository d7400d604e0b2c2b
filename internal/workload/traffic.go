// Record/replay traffic traces: the interchange format between the
// arrival processes and the cluster layers. A Trace is the full
// description of an open-loop job stream — arrival time, app, items,
// weight, floor — serialised as JSON lines so streams can be recorded
// from any generator, inspected with standard tools, and replayed
// bit-identically into cluster.Submit (virtual time) or the live
// runtime (wall clock, scaled).

package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"gridpipe/internal/model"
	"gridpipe/internal/rng"
)

// TraceEvent is one job arrival in a traffic trace.
type TraceEvent struct {
	// T is the arrival time in seconds from the start of the trace.
	T float64 `json:"t"`
	// App names the workload (ByName: "image", "genome", "video").
	App string `json:"app"`
	// Items is the job's item count.
	Items int `json:"items"`
	// Weight is the job's fairness weight (0 = default 1).
	Weight float64 `json:"weight,omitempty"`
	// Floor is the job's admission floor in nodes (0 = default 1).
	Floor int `json:"floor,omitempty"`
}

// Trace is an open-loop job stream: arrivals in nondecreasing time
// order. float64 times survive the JSON round trip exactly (Go
// marshals floats with the shortest representation that parses back
// to the same bits), so record → replay reproduces the generating
// stream bit-identically.
type Trace []TraceEvent

// Validate reports structural errors: out-of-order, negative or
// non-finite times, unknown apps, non-positive item counts, negative or
// non-finite weights.
func (tr Trace) Validate() error {
	prev := math.Inf(-1)
	for i, ev := range tr {
		if ev.T < 0 || math.IsNaN(ev.T) || math.IsInf(ev.T, 0) {
			return fmt.Errorf("workload: trace event %d has invalid time %v", i, ev.T)
		}
		if ev.T < prev {
			return fmt.Errorf("workload: trace event %d at t=%v precedes event %d at t=%v", i, ev.T, i-1, prev)
		}
		prev = ev.T
		if _, err := ByName(ev.App); err != nil {
			return fmt.Errorf("workload: trace event %d: %w", i, err)
		}
		if ev.Items <= 0 {
			return fmt.Errorf("workload: trace event %d has non-positive items %d", i, ev.Items)
		}
		if ev.Weight < 0 || math.IsNaN(ev.Weight) || math.IsInf(ev.Weight, 0) {
			return fmt.Errorf("workload: trace event %d has invalid weight %v", i, ev.Weight)
		}
		if ev.Floor < 0 {
			return fmt.Errorf("workload: trace event %d has negative floor %d", i, ev.Floor)
		}
	}
	return nil
}

// Write records the trace as JSON lines, one event per line.
func (tr Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range tr {
		if err := enc.Encode(&tr[i]); err != nil {
			return fmt.Errorf("workload: writing trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSON-lines trace and validates it. Blank lines
// and lines starting with '#' are skipped so recorded traces can carry
// provenance comments.
func ReadTrace(r io.Reader) (Trace, error) {
	var tr Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		trimmed := false
		for _, c := range b {
			if c != ' ' && c != '\t' {
				trimmed = c == '#'
				break
			}
		}
		if len(b) == 0 || trimmed {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		tr = append(tr, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// JobSpecs converts the trace into cluster job specifications, one per
// event, named "<app>-<index>" in trace order. Each spec carries the
// app's pipeline and CV plus the event's items/weight/floor; submitting
// them in order reproduces the stream (the cluster derives per-job
// seeds from submit order, so a replayed trace is bit-identical to the
// generating run under the same cluster seed).
func (tr Trace) JobSpecs() ([]model.JobSpec, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	specs := make([]model.JobSpec, 0, len(tr))
	for i, ev := range tr {
		app, err := ByName(ev.App)
		if err != nil {
			return nil, err
		}
		specs = append(specs, model.JobSpec{
			Name:       fmt.Sprintf("%s-%d", ev.App, i),
			Spec:       app.Spec,
			Weight:     ev.Weight,
			FloorNodes: ev.Floor,
			Arrival:    ev.T,
			Items:      ev.Items,
			CV:         app.CV,
		})
	}
	return specs, nil
}

// MixEntry is one app class in a generated traffic mix: the app, its
// selection share, and the job shape every arrival of that class gets.
type MixEntry struct {
	// App names the workload (ByName).
	App string
	// Share is the class's relative selection probability (must be
	// positive; shares are normalised over the mix).
	Share float64
	// Items is the per-job item count (0 = default 50).
	Items int
	// Weight and Floor are the job's fairness weight and admission
	// floor (0 = cluster defaults).
	Weight float64
	// Floor is the job's admission floor in nodes.
	Floor int
}

// DefaultMix is the single-class genome mix the CLI tools fall back
// to.
func DefaultMix() []MixEntry {
	return []MixEntry{{App: "genome", Share: 1, Items: 50}}
}

// GenerateTrace drives an arrival process over the given horizon and
// records one job arrival per event, drawing each event's app class
// from the mix (selection randomness comes from a private sub-stream
// of seed, independent of the process's gap stream). The process is
// Reset first, so generation is a pure function of (process seed, mix,
// horizon, seed).
func GenerateTrace(p ArrivalProcess, mix []MixEntry, horizon float64, seed uint64) (Trace, error) {
	if p == nil {
		return nil, fmt.Errorf("workload: GenerateTrace with nil process")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: GenerateTrace horizon must be positive, got %v", horizon)
	}
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	total := 0.0
	for i, m := range mix {
		if _, err := ByName(m.App); err != nil {
			return nil, fmt.Errorf("workload: mix entry %d: %w", i, err)
		}
		if m.Share <= 0 {
			return nil, fmt.Errorf("workload: mix entry %d (%s) has non-positive share %v", i, m.App, m.Share)
		}
		if m.Items < 0 || m.Weight < 0 || m.Floor < 0 {
			return nil, fmt.Errorf("workload: mix entry %d (%s) has a negative field", i, m.App)
		}
		total += m.Share
	}
	pick := rng.New(seed).Derive(mixStream)
	p.Reset()
	var tr Trace
	for t := p.Next(); t <= horizon; t += p.Next() {
		m := mix[0]
		if len(mix) > 1 {
			u := pick.Float64() * total
			for _, cand := range mix {
				m = cand
				if u < cand.Share {
					break
				}
				u -= cand.Share
			}
		}
		items := m.Items
		if items == 0 {
			items = 50
		}
		tr = append(tr, TraceEvent{T: t, App: m.App, Items: items, Weight: m.Weight, Floor: m.Floor})
	}
	return tr, nil
}
