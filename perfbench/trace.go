package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Trace is the round number,
// so every span of one round shares a trace id across goroutines and tree
// hops; Parent indexes the enclosing span (-1 for a root span).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps every span in memory; nothing touches the disk until
// writeJSONL runs after the measurement.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, trace, parent int) int {
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: trace, Start: start, End: start, Parent: parent})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record stores a span whose bounds were measured elsewhere.
func (t *tracer) record(name string, trace, parent int, start, end time.Time) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: trace, Start: t.at(start), End: t.at(end), Parent: parent})
	t.mu.Unlock()
	return id
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int
	TotalMs float64
	SelfMs  float64
	durs    []float64 // per-span milliseconds
}

// summarize groups spans by name. A span's self time is its duration
// minus the time covered by its direct children; children that overlap
// (clients training side by side) count once.
func (t *tracer) summarize() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if lo < hi {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e6
		st.Count++
		st.TotalMs += d
		st.SelfMs += float64(s.End-s.Start-covered(kids[i])) / 1e6
		st.durs = append(st.durs, d)
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// durationsByTrace groups the durations (ms) of the spans called name by
// trace id, in trace order.
func (t *tracer) durationsByTrace(name string) [][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byTrace := map[int][]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], float64(s.End-s.Start)/1e6)
	}
	out := make([][]float64, 0, len(order))
	for _, tr := range order {
		out = append(out, byTrace[tr])
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNs measures what one begin/end pair costs, for the report's
// tracing-overhead line.
func spanCostNs() float64 {
	const n = 100000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0, -1))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// track is one goroutine's view of a tracer: spans opened through it nest
// under the track's innermost open span. A track must not be shared
// between goroutines; each federated client owns one.
type track struct {
	t     *tracer
	round int
	root  int // parent of the outermost span; -1 for none
	stack []int
}

func (k *track) begin(name string) {
	parent := k.root
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1]
	}
	k.stack = append(k.stack, k.t.begin(name, k.round, parent))
}

func (k *track) end() {
	n := len(k.stack) - 1
	k.t.end(k.stack[n])
	k.stack = k.stack[:n]
}
