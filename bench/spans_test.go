package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 3, Parent: 0},            // adjacent to b
		{Name: "b", Start: 3, End: 4, Parent: 0},            //
		{Name: "c", Start: 5, End: 9, Parent: 0},            // has a child of its own
		{Name: "c.inner", Start: 6, End: 8, Parent: 3},      //
		{Name: "d", Start: 7, End: 9.5, Parent: 0, Rank: 1}, // another rank, overlapping c
		{Name: "e", Start: 9.8, End: 12, Parent: 0},         // runs past the parent: clipped
	}
	want := []float64{
		10 - (2 + 1 + 4 + 0.5 + 0.2), // children cover [1,4] ∪ [5,9.5] ∪ [9.8,10]
		2, 1,
		4 - 2,
		2, 2.5, 2.2,
	}
	got := selfTimes(spans)
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerSecondsTakesSlowestRank(t *testing.T) {
	spans := []span{
		{Name: "iteration", Start: 0, End: 10, Parent: -1, Iter: 1},
		{Name: "build", Start: 0, End: 2, Parent: 0, Iter: 1, Rank: 0},
		{Name: "build", Start: 3, End: 4, Parent: 0, Iter: 1, Rank: 0},
		{Name: "build", Start: 0, End: 5, Parent: 0, Iter: 1, Rank: 1},
		{Name: "build", Start: 0, End: 9, Parent: -1, Iter: 2, Rank: 0}, // another iteration
	}
	self := selfTimes(spans)
	if got := layerSeconds(spans, self, 1, "build"); !near(got, 5) {
		t.Errorf("layerSeconds = %v, want rank 1's 5 (rank 0 has 3)", got)
	}
	if got := layerSeconds(spans, self, 1, "absent"); got != 0 {
		t.Errorf("layerSeconds of an absent layer = %v", got)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder // spans-off arm
	off.end(off.begin("x", -1, 0, 0))

	rec := newRecorder()
	root := rec.begin("root", -1, 7, 0)
	kid := rec.begin("kid", root, 7, 1)
	rec.end(kid)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[kid].Parent != root || rec.spans[kid].Iter != 7 || rec.spans[kid].Rank != 1 {
		t.Fatalf("recorded %+v", rec.spans)
	}
	if r, k := rec.spans[root], rec.spans[kid]; k.Start < r.Start || k.End > r.End || k.End < k.Start {
		t.Errorf("child %+v not inside parent %+v", k, r)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeJSON(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Args map[string]int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "kid" || doc.TraceEvents[1].Ph != "X" ||
		doc.TraceEvents[1].Tid != 1 || doc.TraceEvents[1].Args["parent"] != root {
		t.Errorf("trace file holds %+v", doc.TraceEvents)
	}
}
