package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root repeats the metric and workload
// names; the driver reads that file, the benchmark emits from its own
// lists, so the two must agree.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		benchmarkFile
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) || len(bf.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d end-to-end/per-layer/workloads, the code %d/%d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(bf.Workloads), len(endToEnd), len(perLayer), len(specs()))
	}
	for i, d := range endToEnd {
		if m := bf.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: file has %+v, code has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: file has %+v, code has %+v", i, m, d)
		}
	}
	for i, sp := range specs() {
		if w := bf.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, w, sp.name, sp.why)
		}
	}
}

func TestContractLine(t *testing.T) {
	sp, _ := specByName("bm_domains")
	r := newResult(sp, 1, 0)
	r.op(nil)
	if _, err := r.contractLine(); err == nil {
		t.Error("an end-to-end result with no metrics produced a line")
	}
	for _, d := range endToEnd {
		r.set(d.name, 1.5, 3)
	}
	r.Correct = true
	line, err := r.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	var got result
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 1 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) || got.Metrics["wall_s"].Unit != "s" {
		t.Errorf("line = %s", line)
	}

	// A traced result reports every per-layer metric, 0 where the workload
	// does not reach the layer.
	r = newResult(sp, 1, 1)
	r.set("shingle.detect_s", 2, 2)
	line, err = r.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	got = result{}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(perLayer) || got.Metrics["shingle.detect_s"].Value != 2 || got.Metrics["server.publish_p50_ms"].Value != 0 {
		t.Errorf("traced line = %s", line)
	}
}
