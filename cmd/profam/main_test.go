package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profam/internal/workload"
)

// writeFASTA materializes a small synthetic workload as a FASTA file and
// returns its path.
func writeFASTA(t *testing.T, dir string, p workload.Params) string {
	t.Helper()
	set, _ := workload.Generate(p)
	var b bytes.Buffer
	for i := 0; i < set.Len(); i++ {
		s := set.Get(i)
		fmt.Fprintf(&b, ">%s\n%s\n", s.Name, string(s.Res))
	}
	path := filepath.Join(dir, "in.fasta")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

type chromeFile struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func readChrome(t *testing.T, path string) chromeFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cf chromeFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatalf("trace file is not valid chrome JSON: %v", err)
	}
	return cf
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	fa := writeFASTA(t, dir, workload.Params{
		Families: 3, MeanFamilySize: 6, MeanLength: 80,
		Divergence: 0.08, Singletons: 2, Seed: 5,
	})
	famOut := filepath.Join(dir, "fam.json")
	metricsOut := filepath.Join(dir, "metrics.json")
	traceOut := filepath.Join(dir, "trace.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-in", fa, "-out", famOut, "-json",
		"-sim", "-p", "2",
		"-min-component", "3", "-min-family", "3",
		"-metrics-out", metricsOut,
		"-trace-out", traceOut, "-trace-cap", "4096",
		"-log-json",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	var fams jsonReport
	data, err := os.ReadFile(famOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &fams); err != nil {
		t.Fatalf("family output is not valid JSON: %v", err)
	}
	if fams.Input == 0 {
		t.Error("family report has zero input sequences")
	}

	var rep struct {
		Counters map[string]int64 `json:"Counters"`
	}
	data, err = os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v", err)
	}
	if len(rep.Counters) == 0 {
		t.Error("metrics report has no counters")
	}

	cf := readChrome(t, traceOut)
	if len(cf.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}

	if !strings.Contains(stderr.String(), "phase") {
		t.Error("stderr missing the straggler/metrics tables")
	}
	// -log-json: every stderr log line before the tables is JSON.
	first := strings.SplitN(stderr.String(), "\n", 2)[0]
	var line map[string]any
	if err := json.Unmarshal([]byte(first), &line); err != nil {
		t.Errorf("first stderr line is not a JSON log record: %q", first)
	}
}

// A run that errors partway through the pipeline must still flush the
// metrics and trace artifacts from the per-rank failure stashes.
func TestFlushOnFailure(t *testing.T) {
	dir := t.TempDir()
	fa := writeFASTA(t, dir, workload.Params{
		Families: 2, MeanFamilySize: 4, MeanLength: 60, Singletons: 1, Seed: 9,
	})
	metricsOut := filepath.Join(dir, "metrics.json")
	traceOut := filepath.Join(dir, "trace.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-in", fa, "-out", filepath.Join(dir, "fam.txt"),
		"-psi=-1", // rejected by the suffix-tree index, mid-pipeline
		"-metrics-out", metricsOut,
		"-trace-out", traceOut,
	}, &stdout, &stderr)
	if err == nil {
		t.Fatal("run succeeded, want a pipeline error")
	}

	var rep struct {
		Counters map[string]int64 `json:"Counters"`
	}
	data, rerr := os.ReadFile(metricsOut)
	if rerr != nil {
		t.Fatalf("metrics not flushed on failure: %v", rerr)
	}
	if jerr := json.Unmarshal(data, &rep); jerr != nil {
		t.Fatalf("flushed metrics are not valid JSON: %v", jerr)
	}
	if _, ok := rep.Counters["trace_dropped"]; !ok {
		t.Error("flushed metrics missing the trace_dropped counter")
	}

	cf := readChrome(t, traceOut)
	if len(cf.TraceEvents) == 0 {
		t.Error("flushed trace has no events")
	}
	var sawPhaseRR bool
	for _, ev := range cf.TraceEvents {
		if name, _ := ev["name"].(string); name == "phase:rr" {
			sawPhaseRR = true
		}
	}
	if !sawPhaseRR {
		t.Error("flushed trace missing the phase:rr marker recorded before the failure")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{}, &stdout, &stderr); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "x.fasta", "-reduction", "nope"}, &stdout, &stderr); err == nil {
		t.Error("bad -reduction accepted")
	}
	if err := run([]string{"-in", "x.fasta", "-log-level", "loud"}, &stdout, &stderr); err == nil {
		t.Error("bad -log-level accepted")
	}
	if err := run([]string{"-in", "x.fasta", "-trace-out", "t.json", "-trace-cap", "0"}, &stdout, &stderr); err == nil {
		t.Error("zero -trace-cap with -trace-out accepted")
	}
}

// TestFlagSet pins the CLI's flag names, so adding or removing a flag is
// a deliberate diff here and not a side effect.
func TestFlagSet(t *testing.T) {
	want := strings.Fields(`
		c1 c2 contain-coverage contain-identity edge-similarity in json
		log-json log-level metrics-out min-component min-family out
		overlap-coverage overlap-similarity p pprof-addr progress psi
		reduction report s1 s2 seed sim tau threads trace-cap
		trace-out truth w`)
	var stdout, usage bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &usage); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flag set changed:\n got: %s\nwant: %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}
