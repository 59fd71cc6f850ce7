package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profam/internal/ledger"
)

// oldLedger holds two committed records from a PR 15 build, when the
// pair backend was still selectable ("pair_backend":"gst").
const oldLedger = "../../internal/ledger/testdata/ledger_pr15.jsonl"

// TestOldFormatLedgerStillValidates: ledgers from builds that recorded
// "gst" (or "sparse") must keep passing the strict schema round-trip,
// alone and with this build's records appended after them.
func TestOldFormatLedgerStillValidates(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-ledger", oldLedger, "-expect-committed", "2"}, &out); err != nil {
		t.Fatalf("old-format ledger rejected: %v", err)
	}
	if want := "2 records (2 committed) ok"; !strings.Contains(out.String(), want) {
		t.Errorf("stdout = %q, want it to contain %q", out.String(), want)
	}

	old, err := os.ReadFile(oldLedger)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	families := []byte("# fam\n")
	rec := ledger.Record{
		Epoch: 3, Status: ledger.StatusCommitted, Fingerprint: "psi=8",
		PairBackend: ledger.PairBackendESA, InputDigest: ledger.NamesDigest([]string{"a"}),
		Families: 1, FamiliesDigest: ledger.FamiliesTextDigest(families),
	}
	if err := led.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	famPath := filepath.Join(dir, "families.txt")
	if err := os.WriteFile(famPath, families, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ledger", path, "-expect-committed", "3", "-expect-families", famPath}, io.Discard); err != nil {
		t.Errorf("mixed old/new ledger rejected: %v", err)
	}
}

// TestViolationsRejected: accepting old values of one field must not have
// loosened the schema check or the gates CI relies on.
func TestViolationsRejected(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old, err := os.ReadFile(oldLedger)
	if err != nil {
		t.Fatal(err)
	}
	extraField := strings.Replace(string(old), `{"epoch"`, `{"pairs":"gst","epoch"`, 1)
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown field":  {[]string{"-ledger", write("extra.jsonl", extraField)}, "does not decode"},
		"wrong count":    {[]string{"-ledger", oldLedger, "-expect-committed", "3"}, "committed records = 2, want 3"},
		"wrong families": {[]string{"-ledger", oldLedger, "-expect-families", write("other.txt", "# other\n")}, "families digest"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, tc.want)
		}
	}
}
