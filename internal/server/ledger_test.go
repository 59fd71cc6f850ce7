package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"profam"
	"profam/internal/ledger"
	"profam/internal/seq"
)

// TestLedgerMatchesColdRun is the provenance replay contract: every
// committed epoch's ledger record carries a families digest that a cold
// profam run over the recorded union corpus reproduces exactly, across
// rank and thread counts. This is what makes the ledger audit-grade —
// the digests are claims anyone can re-verify offline.
func TestLedgerMatchesColdRun(t *testing.T) {
	set := testCorpus(t, 63)
	names := make([]string, set.Len())
	seqs := make([]string, set.Len())
	for id := 0; id < set.Len(); id++ {
		names[id], seqs[id] = set.Get(id).Name, string(set.Get(id).Res)
	}
	const waves = 3
	per := (set.Len() + waves - 1) / waves

	for _, p := range []int{1, 2} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("p%d_t%d", p, threads), func(t *testing.T) {
				pcfg := profam.Config{ThreadsPerRank: threads}
				s := New(Config{
					Pipeline:  pcfg,
					Ranks:     p,
					BatchWait: 5 * time.Millisecond,
				})
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					_ = s.Shutdown(ctx)
				}()

				var ends []int
				for from := 0; from < set.Len(); from += per {
					end := min(from+per, set.Len())
					if _, err := s.Submit(context.Background(), names[from:end], seqs[from:end]); err != nil {
						t.Fatalf("wave [%d,%d): %v", from, end, err)
					}
					ends = append(ends, end)
				}

				recs := s.Ledger().Records()
				if len(recs) != len(ends) {
					t.Fatalf("ledger has %d records for %d waves", len(recs), len(ends))
				}
				for i, rec := range recs {
					if rec.Status != ledger.StatusCommitted {
						t.Fatalf("record %d status %q", i, rec.Status)
					}
					if rec.Epoch != i+1 || rec.CorpusSize != ends[i] {
						t.Errorf("record %d: epoch=%d corpus=%d, want %d/%d", i, rec.Epoch, rec.CorpusSize, i+1, ends[i])
					}
					if rec.Fingerprint != pcfg.Fingerprint() {
						t.Errorf("record %d fingerprint %q != config %q", i, rec.Fingerprint, pcfg.Fingerprint())
					}

					// Cold replay over the recorded prefix corpus.
					end := ends[i]
					cold, err := profam.RunParallel(p, names[:end], seqs[:end], pcfg)
					if err != nil {
						t.Fatalf("cold run over %d seqs: %v", end, err)
					}
					coldSet := seq.NewSet()
					for id := 0; id < end; id++ {
						coldSet.MustAdd(names[id], seqs[id])
					}
					coldDigest, err := ledger.FamiliesDigest(coldSet, cold)
					if err != nil {
						t.Fatal(err)
					}
					if rec.FamiliesDigest != coldDigest {
						t.Errorf("epoch %d families digest %s != cold %s", rec.Epoch, rec.FamiliesDigest, coldDigest)
					}
					if rec.InputDigest != ledger.NamesDigest(names[:end]) {
						t.Errorf("epoch %d input digest mismatch", rec.Epoch)
					}
				}
			})
		}
	}
}

// TestEpochEndpointsAndTraces covers the serving side of the tentpole:
// /v1/epochs lists every record, /v1/epochs/{n} fetches one, and
// /debug/epochs/{n}/trace returns Chrome JSON tagged with the epoch.
func TestEpochEndpointsAndTraces(t *testing.T) {
	set := testCorpus(t, 44)
	traceDir := t.TempDir()
	s, ts := newTestServer(t, Config{
		BatchWait:     10 * time.Millisecond,
		TraceCapacity: 1 << 14,
		TraceHistory:  2,
		TraceDir:      traceDir,
	})

	third := set.Len() / 3
	for _, wave := range [][2]int{{0, third}, {third, 2 * third}, {2 * third, set.Len()}} {
		if code, out := post(t, ts.URL+"/v1/sequences", "application/x-fasta", fastaBody(set, wave[0], wave[1])); code != http.StatusOK {
			t.Fatalf("ingest %v = %d (%v)", wave, code, out)
		}
	}

	code, body := get(t, ts.URL+"/v1/epochs")
	if code != http.StatusOK {
		t.Fatalf("/v1/epochs = %d", code)
	}
	var list struct {
		Count  int             `json:"count"`
		Epochs []ledger.Record `json:"epochs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 3 || len(list.Epochs) != 3 {
		t.Fatalf("epochs count = %d (%d records), want 3", list.Count, len(list.Epochs))
	}
	for i, rec := range list.Epochs {
		if rec.Status != ledger.StatusCommitted || rec.FamiliesDigest == "" || rec.InputDigest == "" {
			t.Errorf("record %d incomplete: %+v", i, rec)
		}
		if len(rec.PhaseSeconds) == 0 {
			t.Errorf("record %d has no phase timings", i)
		}
	}

	code, body = get(t, ts.URL+"/v1/epochs/2")
	if code != http.StatusOK {
		t.Fatalf("/v1/epochs/2 = %d", code)
	}
	var rec ledger.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 2 {
		t.Errorf("fetched epoch %d, want 2", rec.Epoch)
	}
	if code, _ := get(t, ts.URL+"/v1/epochs/99"); code != http.StatusNotFound {
		t.Errorf("/v1/epochs/99 = %d, want 404", code)
	}

	// TraceHistory=2: epoch 1 evicted, epochs 2 and 3 retained.
	if code, _ := get(t, ts.URL+"/debug/epochs/1/trace"); code != http.StatusNotFound {
		t.Errorf("evicted epoch trace = %d, want 404", code)
	}
	for _, n := range []int{2, 3} {
		code, body := get(t, ts.URL+fmt.Sprintf("/debug/epochs/%d/trace", n))
		if code != http.StatusOK {
			t.Fatalf("/debug/epochs/%d/trace = %d", n, code)
		}
		if !bytes.Contains(body, []byte("traceEvents")) || !bytes.Contains(body, []byte("phase:start")) {
			t.Errorf("epoch %d trace is not a timeline", n)
		}
		if !bytes.Contains(body, []byte(fmt.Sprintf(`"otherData":{"epoch":"%d"}`, n))) {
			t.Errorf("epoch %d trace missing epoch metadata", n)
		}
		var chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &chrome); err != nil {
			t.Fatalf("epoch %d trace is not valid JSON: %v", n, err)
		}
		if len(chrome.TraceEvents) == 0 {
			t.Errorf("epoch %d trace has no events", n)
		}
	}
	if got := s.TracedEpochs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("TracedEpochs = %v, want [2 3]", got)
	}

	// -trace-dir persistence: all three epochs on disk, even the evicted one.
	for n := 1; n <= 3; n++ {
		path := filepath.Join(traceDir, fmt.Sprintf("epoch_%04d.trace.json", n))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("epoch %d trace file: %v", n, err)
		}
		if !bytes.Contains(raw, []byte("traceEvents")) {
			t.Errorf("epoch %d trace file is not Chrome JSON", n)
		}
	}

	// The enriched status payload.
	_, body = get(t, ts.URL+"/v1/status")
	var st struct {
		Epoch            int     `json:"epoch"`
		PendingBatch     int     `json:"pending_batch"`
		UptimeSeconds    float64 `json:"uptime_seconds"`
		PairBackend      string  `json:"pair_backend"`
		LastEpochSeconds float64 `json:"last_epoch_seconds"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 || st.UptimeSeconds <= 0 || st.PairBackend != ledger.PairBackendESA || st.LastEpochSeconds <= 0 {
		t.Errorf("status incomplete: %+v", st)
	}

	// Telemetry middleware: per-route series visible on /metrics.
	_, body = get(t, ts.URL+"/metrics")
	for _, series := range []string{
		"server_http_latency_us", "server_http_requests",
		"server_queue_wait_us", "runtime_goroutines", "runtime_heap_inuse_bytes",
	} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// TestLedgerRecordsAbortedEpoch pins the failure-path satellite: a
// forced shutdown's aborted epoch still produces a ledger record and an
// outcome-labeled ingest latency observation.
func TestLedgerRecordsAbortedEpoch(t *testing.T) {
	set := testCorpus(t, 91)
	s := New(Config{BatchWait: time.Hour, BatchSize: 1 << 20})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), setNames(set), setSeqs(set))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.subs) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("forced shutdown err = %v", err)
	}
	if err := <-done; err == nil {
		t.Fatal("aborted submission reported success")
	}

	recs := s.Ledger().Records()
	if len(recs) != 1 {
		t.Fatalf("ledger has %d records after abort, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Status != ledger.StatusAborted || rec.Epoch != 1 || rec.Error == "" {
		t.Errorf("aborted record = %+v", rec)
	}
	snap := s.reg.Snapshot()
	if _, ok := snap.Histograms["server_ingest_to_publish_us{outcome=aborted}"]; !ok {
		names := make([]string, 0, len(snap.Histograms))
		for name := range snap.Histograms {
			names = append(names, name)
		}
		t.Errorf("no outcome-labeled latency for aborted epoch; histograms: %v", names)
	}
}

func setNames(set *seq.Set) []string {
	names := make([]string, set.Len())
	for id := range names {
		names[id] = set.Get(id).Name
	}
	return names
}

func setSeqs(set *seq.Set) []string {
	seqs := make([]string, set.Len())
	for id := range seqs {
		seqs[id] = string(set.Get(id).Res)
	}
	return seqs
}
