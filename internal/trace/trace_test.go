package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"profam/internal/metrics"
)

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Instant("cat", "x", "", 0, "", 0)
	tr.Span("cat", "x", 0, 1, "", 0, "", 0)
	tr.Count("cat", "x", 7)
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil Now = %v", got)
	}
	if snap := tr.Snapshot(); len(snap.Events) != 0 || snap.Dropped != 0 {
		t.Fatalf("nil Snapshot = %+v", snap)
	}
	if New(3, 0, nil, nil) != nil {
		t.Fatal("capacity 0 should return the nil (disabled) tracer")
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	reg := metrics.New(0, nil)
	dropped := reg.Counter("trace_dropped")
	now := 0.0
	tr := New(2, 4, func() float64 { now += 1; return now }, dropped)
	for i := 0; i < 10; i++ {
		tr.Instant(CatMaster, "ev", "i", int64(i), "", 0)
	}
	snap := tr.Snapshot()
	if snap.Rank != 2 {
		t.Fatalf("rank = %d", snap.Rank)
	}
	if len(snap.Events) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(snap.Events))
	}
	if snap.Dropped != 6 || dropped.Value() != 6 {
		t.Fatalf("dropped = %d (counter %d), want 6", snap.Dropped, dropped.Value())
	}
	// Oldest-first order: the four survivors are events 6..9.
	for i, e := range snap.Events {
		if e.V1 != int64(6+i) {
			t.Fatalf("event %d: V1 = %d, want %d", i, e.V1, 6+i)
		}
		if e.Rank != 2 {
			t.Fatalf("event %d: rank = %d", i, e.Rank)
		}
	}
}

func TestSnapshotBeforeWrap(t *testing.T) {
	tr := New(0, 8, nil, nil)
	tr.Span(CatPhase, "rr", 1, 3, "", 0, "", 0)
	tr.Count(CatMaster, "queue", 12)
	snap := tr.Snapshot()
	if len(snap.Events) != 2 || snap.Dropped != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Events[0].Kind != KindSpan || snap.Events[0].Dur != 2 {
		t.Fatalf("span event = %+v", snap.Events[0])
	}
	if snap.Events[1].Kind != KindCounter || snap.Events[1].V1 != 12 {
		t.Fatalf("counter event = %+v", snap.Events[1])
	}
}

func TestMergeAndCanonical(t *testing.T) {
	mk := func(rank int) RankTrace {
		tr := New(rank, 16, nil, nil)
		tr.Span(CatPhase, "rr", float64(rank), float64(rank)+2, "", 0, "", 0)
		tr.Span(CatComm, "recv", 0.5, 1.5, "from", int64(1-rank), "bytes", 99)
		tr.Instant(CatMaster, "dispatch", "pairs", 64, "to", int64(rank))
		return tr.Snapshot()
	}
	// Merge must order by rank regardless of input order.
	tl := Merge([]RankTrace{mk(1), mk(0)})
	if tl.NumRanks != 2 || tl.Ranks[0].Rank != 0 || tl.Ranks[1].Rank != 1 {
		t.Fatalf("merge order wrong: %+v", tl.Ranks)
	}
	if tl.NumEvents() != 6 {
		t.Fatalf("NumEvents = %d", tl.NumEvents())
	}

	c := tl.Canonical()
	for _, rt := range c.Ranks {
		for _, e := range rt.Events {
			if e.Ts != 0 || e.Dur != 0 {
				t.Fatalf("canonical kept clock fields: %+v", e)
			}
			if e.Cat == CatComm && (e.V1 != 0 || e.V2 != 0) {
				t.Fatalf("canonical kept comm values: %+v", e)
			}
			if e.Cat == CatMaster && e.V1 != 64 {
				t.Fatalf("canonical dropped protocol values: %+v", e)
			}
		}
	}
	// Canonical must not mutate the original.
	if tl.Ranks[0].Events[0].Dur != 2 {
		t.Fatal("Canonical mutated the source timeline")
	}
	b1, _ := json.Marshal(c)
	b2, _ := json.Marshal(tl.Canonical())
	if !bytes.Equal(b1, b2) {
		t.Fatal("canonical JSON not stable")
	}
}

func TestChromeJSONIsValid(t *testing.T) {
	tr := New(0, 16, nil, nil)
	tr.Span(CatPhase, "rr", 0, 2, "", 0, "", 0)
	tr.Span(CatComm, "recv", 0.25, 0.5, "from", 1, "bytes", 1024)
	tr.Instant(CatPipeline, "phase:ccd", "", 0, "", 0)
	tr.Count(CatMaster, "ccd/queue", 17)
	tl := Merge([]RankTrace{tr.Snapshot()})
	var buf bytes.Buffer
	if err := WriteChromeJSON(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 4 metadata (process name + 3 lane names) + 4 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("traceEvents = %d, want 8", len(doc.TraceEvents))
	}
	kinds := map[string]int{}
	for _, e := range doc.TraceEvents {
		kinds[e.Ph]++
		if e.Ph == "X" && e.Name == "rr" {
			if e.Ts != 0 || e.Dur != 2e6 {
				t.Fatalf("rr span ts/dur = %v/%v µs", e.Ts, e.Dur)
			}
			if e.Tid != tidPhases {
				t.Fatalf("rr span lane = %d", e.Tid)
			}
		}
		if e.Ph == "X" && e.Name == "recv" {
			if e.Tid != tidComm || e.Args["bytes"] != float64(1024) {
				t.Fatalf("recv span = %+v", e)
			}
		}
	}
	if kinds["M"] != 4 || kinds["X"] != 2 || kinds["i"] != 1 || kinds["C"] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

func TestAnalyze(t *testing.T) {
	mk := func(rank int, rrDur float64) RankTrace {
		tr := New(rank, 32, nil, nil)
		tr.Span(CatPhase, "rr", 0, rrDur, "", 0, "", 0)
		tr.Span(CatPhase, "rr/index", 0, rrDur/2, "", 0, "", 0) // nested: must not double-count
		tr.Span(CatPhase, "ccd", rrDur, rrDur+1, "", 0, "", 0)
		tr.Span(CatComm, "recv", rrDur+1, rrDur+1.25, "from", 0, "bytes", 10)
		return tr.Snapshot()
	}
	a := Analyze(Merge([]RankTrace{mk(0, 2), mk(1, 4)}))
	if a.NumRanks != 2 {
		t.Fatalf("ranks = %d", a.NumRanks)
	}
	// Makespan spans t=0 to the end of rank 1's recv at 5.25.
	if math.Abs(a.Makespan-5.25) > 1e-9 {
		t.Fatalf("makespan = %v", a.Makespan)
	}
	// rr: per-rank totals {2, 4} → max 4, mean 3, imbalance 4/3, Gini 1/6.
	if got := a.PhaseMax("rr"); math.Abs(got-4) > 1e-9 {
		t.Fatalf("rr max = %v", got)
	}
	var rr PhaseStat
	for _, p := range a.Phases {
		if p.Name == "rr" {
			rr = p
		}
	}
	if math.Abs(rr.Mean-3) > 1e-9 || math.Abs(rr.Imbalance-4.0/3) > 1e-9 {
		t.Fatalf("rr stat = %+v", rr)
	}
	if math.Abs(rr.Gini-1.0/6) > 1e-9 {
		t.Fatalf("rr gini = %v", rr.Gini)
	}
	// Critical path = top-level phases only: rr max (4) + ccd max (1).
	if math.Abs(a.CriticalPath-5) > 1e-9 {
		t.Fatalf("critical path = %v", a.CriticalPath)
	}
	// Busy on rank 0: union of [0,2] ∪ [0,1] ∪ [2,3] = 3 (no double count).
	if math.Abs(a.Ranks[0].Busy-3) > 1e-9 {
		t.Fatalf("rank 0 busy = %v", a.Ranks[0].Busy)
	}
	if math.Abs(a.Ranks[0].Comm-0.25) > 1e-9 {
		t.Fatalf("rank 0 comm = %v", a.Ranks[0].Comm)
	}
	if math.Abs(a.Ranks[0].Idle-(5.25-3)) > 1e-9 {
		t.Fatalf("rank 0 idle = %v", a.Ranks[0].Idle)
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty straggler report")
	}
}

func TestNopLogger(t *testing.T) {
	l := NopLogger()
	l.Info("discarded", "k", 1)
	if l.Enabled(nil, 0) {
		t.Fatal("nop logger claims to be enabled")
	}
}

// TestTracerConcurrent is the -race hammer: many goroutines recording
// past the ring capacity while snapshots are taken concurrently.
func TestTracerConcurrent(t *testing.T) {
	reg := metrics.New(0, nil)
	tr := New(0, 128, nil, reg.Counter("trace_dropped"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Instant(CatWorker, "ev", "g", int64(g), "i", int64(i))
				tr.Span(CatComm, "recv", 0, 1, "from", 1, "bytes", 64)
				tr.Count(CatMaster, "queue", int64(i))
				if i%100 == 0 {
					_ = tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Events) != 128 {
		t.Fatalf("len = %d, want full ring", len(snap.Events))
	}
	want := int64(8*500*3 - 128)
	if snap.Dropped != want {
		t.Fatalf("dropped = %d, want %d", snap.Dropped, want)
	}
}
