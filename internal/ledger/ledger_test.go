package ledger

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func sampleRecord(epoch int) Record {
	return Record{
		Epoch:            epoch,
		Status:           StatusCommitted,
		UnixNanos:        1700000000000000000 + int64(epoch),
		Fingerprint:      "k=4;q=3",
		PairBackend:      PairBackendESA,
		Submissions:      2,
		NewSequences:     10,
		CorpusSize:       10 * epoch,
		InputDigest:      NamesDigest([]string{"a", "b"}),
		Families:         3,
		FamiliesDigest:   FamiliesTextDigest([]byte("# fam\n")),
		Demotions:        1,
		ComponentsCached: 4,
		PhaseSeconds:     map[string]float64{"pace": 0.25, "bgg": 0.5},
		HeapPeakBytes:    1 << 20,
		BuildSeconds:     0.75,
	}
}

// TestAppendReopenRoundTrip starts from a ledger written while the pair
// backend was still selectable (epochs 1–2 of a PR 15 `./ci.sh e2e` run:
// "pairs=gst" in the fingerprint, "pair_backend":"gst"): old records must
// replay, stay byte-identical on disk, and take this build's records
// after them.
func TestAppendReopenRoundTrip(t *testing.T) {
	old, err := os.ReadFile("testdata/ledger_pr15.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Recovered() || l.Len() != 2 || l.Records()[0].PairBackend != "gst" {
		t.Fatalf("old-format ledger: recovered=%v records=%+v", l.Recovered(), l.Records())
	}
	want := append(l.Records(), sampleRecord(3), sampleRecord(4))
	want[3].Status = StatusFailed
	want[3].Error = "boom"
	for _, r := range want[2:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); !bytes.HasPrefix(raw, old) {
		t.Error("appending rewrote the old-format records")
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Recovered() {
		t.Fatal("clean file reported as recovered")
	}
	got := l2.Records()
	if len(got) != len(want) {
		t.Fatalf("records = %d, want %d", len(got), len(want))
	}
	for i := range want {
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want[i])
		if !bytes.Equal(gj, wj) {
			t.Errorf("record %d round-trip mismatch:\n got %s\nwant %s", i, gj, wj)
		}
	}
	if rec, ok := l2.Epoch(4); !ok || rec.Status != StatusFailed {
		t.Errorf("Epoch(4) = %+v, %v; want failed record", rec, ok)
	}
	if _, ok := l2.Epoch(99); ok {
		t.Error("Epoch(99) unexpectedly found")
	}
}

// TestTruncatedTailRecovered simulates a crash mid-append: the last line
// is torn. Open must keep the complete records, report recovery, and
// leave the file appendable so the retried epoch lands cleanly.
func TestTruncatedTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record roughly in half, losing its newline.
	last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	torn := raw[:last+(len(raw)-last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Recovered() {
		t.Error("torn tail not reported as recovered")
	}
	if l2.Len() != 2 {
		t.Fatalf("after recovery Len = %d, want 2", l2.Len())
	}
	// Re-append the lost epoch; a fresh open must see all three, clean.
	if err := l2.Append(sampleRecord(3)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Recovered() {
		t.Error("re-appended file reported as recovered")
	}
	if l3.Len() != 3 {
		t.Errorf("after re-append Len = %d, want 3", l3.Len())
	}
	if rec, ok := l3.Epoch(3); !ok || rec.Epoch != 3 {
		t.Errorf("Epoch(3) missing after re-append: %+v, %v", rec, ok)
	}
}

func TestCorruptMidFileDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{not json\n")
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Recovered() || l2.Len() != 1 {
		t.Errorf("corrupt line: recovered=%v len=%d, want true/1", l2.Recovered(), l2.Len())
	}
}

func TestMemoryOnlyLedger(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 || l.Path() != "" {
		t.Errorf("memory ledger: len=%d path=%q", l.Len(), l.Path())
	}
	var nilL *Ledger
	if err := nilL.Append(sampleRecord(1)); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if nilL.Len() != 0 || nilL.Records() != nil {
		t.Error("nil ledger should be empty")
	}
}

func TestNamesDigest(t *testing.T) {
	a := NamesDigest([]string{"ab", "c"})
	b := NamesDigest([]string{"a", "bc"})
	if a == b {
		t.Error("length prefixing failed: concatenation collision")
	}
	if NamesDigest([]string{"x", "y"}) != NamesDigest([]string{"x", "y"}) {
		t.Error("digest not deterministic")
	}
	if NamesDigest([]string{"x", "y"}) == NamesDigest([]string{"y", "x"}) {
		t.Error("digest must be order-sensitive")
	}
}
