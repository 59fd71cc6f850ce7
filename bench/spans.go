package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented here). Times are
// seconds since the recorder was created.
type span struct {
	Name   string
	Start  float64
	End    float64
	Parent int // index of the enclosing span, -1 for a root
	Iter   int // iteration the span belongs to; spans of one iteration share it
	Rank   int // mpi rank that made the call
}

func (s span) seconds() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the spans-off arm of the overhead
// measurement runs the identical code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, iter, rank int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Iter: iter, Rank: rank})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (two ranks working at once), so their union is subtracted, clipped to
// the parent.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.seconds() - covered
	}
	return self
}

// layerSeconds is the time one iteration spent in the named layer call:
// self time summed per rank, then the largest rank's total, because
// ranks run side by side and the slowest one sets the wall clock.
func layerSeconds(spans []span, self []float64, iter int, name string) float64 {
	perRank := map[int]float64{}
	for i, s := range spans {
		if s.Iter == iter && s.Name == name {
			perRank[s.Rank] += self[i]
		}
	}
	var worst float64
	for _, t := range perRank {
		worst = max(worst, t)
	}
	return worst
}

// writeChromeJSON writes the spans in the Chrome trace-event format
// (load in chrome://tracing or Perfetto): one complete event per span,
// one track per rank.
func writeChromeJSON(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: s.seconds() * 1e6, Pid: 1, Tid: s.Rank,
			Args: map[string]int{"id": i, "parent": s.Parent, "iter": s.Iter},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
