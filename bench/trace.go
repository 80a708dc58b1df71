package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one job share Job; Parent is 0 for a root. Times
// are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int64, name, job string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// begin opens a span whose children are recorded before it ends; end
// closes it.
func (t *tracer) begin(parent int64, name, job string) int64 {
	now := time.Now()
	return t.add(parent, name, job, now, now)
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// timed runs fn inside a span named name and returns fn's error.
func (t *tracer) timed(parent int64, name, job string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(parent, name, job, start, time.Now())
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// union merges overlapping intervals and returns them sorted.
func union(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.hi - iv.lo
	}
	return n
}

// selfIntervals returns, per span id, the parts of the span's interval
// that none of its children cover: a child's overlap is counted once
// however many children share it, and a child reaching outside its
// parent only covers the part inside.
func selfIntervals(spans []span) map[int64][]interval {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64][]interval, len(spans))
	for _, s := range spans {
		cur := s.Start
		var self []interval
		for _, c := range union(children[s.ID]) {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if lo >= hi {
				continue
			}
			if lo > cur {
				self = append(self, interval{cur, lo})
			}
			cur = max(cur, hi)
		}
		if cur < s.End {
			self = append(self, interval{cur, s.End})
		}
		out[s.ID] = self
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the union
// of its children inside it.
func selfTimes(spans []span) map[int64]int64 {
	out := make(map[int64]int64, len(spans))
	for id, ivs := range selfIntervals(spans) {
		out[id] = length(ivs)
	}
	return out
}

// layerRow is one line of the rollup: a layer's self time per job.
type layerRow struct {
	Layer string `json:"layer"`
	Calls int    `json:"calls"`
	Jobs  int    `json:"jobs"`
	// SelfMsPerJob is the median over jobs of the wall time the layer
	// ran for in a job outside its child layers; concurrent calls of
	// one layer (two slices at once) count once.
	SelfMsPerJob float64 `json:"self_ms_per_job"`
}

// rollup summarizes self time per layer across the jobs that used it,
// layers in name order. A span outside any job (a query, a recovery)
// counts as a job of its own.
func rollup(spans []span) []layerRow {
	self := selfIntervals(spans)
	type key struct {
		layer, job string
		id         int64
	}
	perJob := make(map[key][]interval)
	calls := make(map[string]int)
	for _, s := range spans {
		k := key{layer: s.Name, job: s.Job}
		if s.Job == "" {
			k.id = s.ID
		}
		perJob[k] = append(perJob[k], self[s.ID]...)
		calls[s.Name]++
	}
	byLayer := make(map[string][]float64)
	for k, ivs := range perJob {
		byLayer[k.layer] = append(byLayer[k.layer], float64(length(union(ivs))))
	}
	rows := make([]layerRow, 0, len(byLayer))
	for layer, xs := range byLayer {
		rows = append(rows, layerRow{Layer: layer, Calls: calls[layer], Jobs: len(xs), SelfMsPerJob: median(xs) / 1e6})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Layer < rows[j].Layer })
	return rows
}

// traceFile is the document a traced run writes per workload.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Spans    []span     `json:"spans"`
	Rollup   []layerRow `json:"rollup"`
}

func writeTrace(path string, doc traceFile) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
