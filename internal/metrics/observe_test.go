package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanSink(t *testing.T) {
	r := New(1, fixedClock())
	var got []SpanRecord
	r.SetSpanSink(func(sp SpanRecord) { got = append(got, sp) })
	r.RecordSpan("rr", 0, 2)
	r.StartSpan("ccd").End()
	if len(got) != 2 {
		t.Fatalf("sink saw %d spans", len(got))
	}
	if got[0].Name != "rr" || got[0].Rank != 1 || got[0].Seconds() != 2 {
		t.Fatalf("sink span 0 = %+v", got[0])
	}
	if got[1].Name != "ccd" {
		t.Fatalf("sink span 1 = %+v", got[1])
	}
	// The registry must also keep its own copy.
	if snap := r.Snapshot(); len(snap.Spans) != 2 {
		t.Fatalf("registry kept %d spans", len(snap.Spans))
	}
	r.SetSpanSink(nil)
	r.RecordSpan("bgg", 0, 1)
	if len(got) != 2 {
		t.Fatal("detached sink still called")
	}
	var nilReg *Registry
	nilReg.SetSpanSink(func(SpanRecord) {}) // must not panic
}

func TestQuantiles(t *testing.T) {
	h := &Histogram{}
	// 100 observations of value 7 (bucket 3 = [4,8)): every quantile must
	// land inside the bucket and clamp to min=max=7.
	for i := 0; i < 100; i++ {
		h.Observe(7)
	}
	s := h.snapshot()
	if s.P50 != 7 || s.P95 != 7 || s.P99 != 7 {
		t.Fatalf("constant histogram quantiles = %v/%v/%v", s.P50, s.P95, s.P99)
	}

	// 90 small values (=2) and 10 large (=1000): p50 must stay small,
	// p95/p99 must land in the large bucket (512,1024].
	h2 := &Histogram{}
	for i := 0; i < 90; i++ {
		h2.Observe(2)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1000)
	}
	s2 := h2.snapshot()
	if s2.P50 < 2 || s2.P50 >= 4 {
		t.Fatalf("p50 = %v, want inside the [2,4) bucket", s2.P50)
	}
	if s2.P95 <= 512 || s2.P95 > 1000 {
		t.Fatalf("p95 = %v, want in (512, 1000]", s2.P95)
	}
	if s2.P99 < s2.P95 || s2.P99 > 1000 {
		t.Fatalf("p99 = %v (p95 %v)", s2.P99, s2.P95)
	}

	// Quantiles survive a merge and reflect the combined distribution.
	m := mergeHist(s, s2)
	if m.Count != 200 {
		t.Fatalf("merged count = %d", m.Count)
	}
	if m.P50 < 2 || m.P50 > 8 {
		t.Fatalf("merged p50 = %v, want within small buckets", m.P50)
	}
	if m.P99 <= 512 {
		t.Fatalf("merged p99 = %v, want in the large bucket", m.P99)
	}

	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestQuantilesInReportOutputs(t *testing.T) {
	r := New(0, nil)
	for i := int64(1); i <= 64; i++ {
		r.Histogram("batch_size").Observe(i)
	}
	rep := Merge([]Snapshot{r.Snapshot()})
	h := rep.Histograms["batch_size"]
	if h.P50 < 16 || h.P50 > 64 {
		t.Fatalf("report p50 = %v", h.P50)
	}
	var buf bytes.Buffer
	if err := rep.Table(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p50=") || !strings.Contains(buf.String(), "p99=") {
		t.Fatalf("table missing quantile columns:\n%s", buf.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New(0, fixedClock())
	r.Counter(Name("pace_pairs_aligned", "phase", "rr")).Add(42)
	r.Counter(Name("pace_pairs_aligned", "phase", "ccd")).Add(8)
	r.Gauge("mpi_queue_depth").Set(3.5)
	for i := int64(1); i <= 10; i++ {
		r.Histogram(Name("pace_batch_pairs", "phase", "rr")).Observe(i * 100)
	}
	rep := Merge([]Snapshot{r.Snapshot()})
	var buf bytes.Buffer
	if err := rep.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pace_pairs_aligned counter",
		`pace_pairs_aligned{phase="rr"} 42`,
		`pace_pairs_aligned{phase="ccd"} 8`,
		"# TYPE mpi_queue_depth gauge",
		"mpi_queue_depth 3.5",
		"# TYPE pace_batch_pairs summary",
		`pace_batch_pairs{phase="rr",quantile="0.5"}`,
		`pace_batch_pairs{phase="rr",quantile="0.99"}`,
		`pace_batch_pairs_sum{phase="rr"} 5500`,
		`pace_batch_pairs_count{phase="rr"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE lines must not repeat per label set.
	if strings.Count(out, "# TYPE pace_pairs_aligned counter") != 1 {
		t.Errorf("duplicated TYPE line:\n%s", out)
	}
	if err := (*Report)(nil).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestLiveRegistries(t *testing.T) {
	r := New(5, nil)
	r.Counter("x").Add(9)
	RegisterLive(r)
	found := false
	for _, s := range LiveSnapshots() {
		if s.Rank == 5 && s.Counters["x"] == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("live snapshot missing registered registry")
	}
	UnregisterLive(r)
	for _, s := range LiveSnapshots() {
		if s.Rank == 5 {
			t.Fatal("unregistered registry still live")
		}
	}
	RegisterLive(nil) // nil-safe
	UnregisterLive(nil)
}
