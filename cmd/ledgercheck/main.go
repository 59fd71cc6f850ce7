// Command ledgercheck validates a profamd epoch provenance ledger after
// a run: the JSONL schema round-trips byte-identically, record counts
// match expectations, and the final committed families digest matches a
// reference families listing (e.g. the cold-run families the e2e gate
// already produces). Exit status 1 on any violation, so CI can gate on
// it directly.
//
//	ledgercheck -ledger e2e/ledger.jsonl -expect-committed 3 -expect-families cold_families.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"profam/internal/ledger"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ledgercheck: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ledgercheck", flag.ContinueOnError)
	path := fs.String("ledger", "", "ledger JSONL file to validate (required)")
	expectCommitted := fs.Int("expect-committed", -1, "required number of committed records (-1 skips the check)")
	expectFamilies := fs.String("expect-families", "", "families listing whose digest the last committed record must match")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-ledger is required")
	}

	// Schema round-trip over the raw lines: every line must decode into
	// ledger.Record and re-encode to the identical bytes, proving the
	// file carries no fields the schema silently drops.
	raw, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer raw.Close()
	sc := bufio.NewScanner(raw)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec ledger.Record
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("line %d: does not decode as a ledger record: %w", lineNo, err)
		}
		re, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("line %d: re-encode: %w", lineNo, err)
		}
		if !bytes.Equal(line, re) {
			return fmt.Errorf("line %d: schema does not round-trip:\n file %s\n re   %s", lineNo, line, re)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	// Replay through the library path (also exercises torn-tail
	// recovery; a validated file must not need it).
	led, err := ledger.Open(*path)
	if err != nil {
		return err
	}
	defer led.Close()
	if led.Recovered() {
		return fmt.Errorf("ledger has a torn trailing line")
	}

	committed := 0
	var last *ledger.Record
	for _, rec := range led.Records() {
		switch rec.Status {
		case ledger.StatusCommitted:
			committed++
			r := rec
			last = &r
		case ledger.StatusFailed, ledger.StatusAborted:
		default:
			return fmt.Errorf("epoch %d: unknown status %q", rec.Epoch, rec.Status)
		}
		if rec.Status == ledger.StatusCommitted {
			if rec.FamiliesDigest == "" || rec.InputDigest == "" || rec.Fingerprint == "" {
				return fmt.Errorf("epoch %d: committed record missing digests or fingerprint", rec.Epoch)
			}
		}
	}
	if *expectCommitted >= 0 && committed != *expectCommitted {
		return fmt.Errorf("committed records = %d, want %d", committed, *expectCommitted)
	}

	if *expectFamilies != "" {
		if last == nil {
			return fmt.Errorf("-expect-families given but no committed record in ledger")
		}
		text, err := os.ReadFile(*expectFamilies)
		if err != nil {
			return err
		}
		digest := ledger.FamiliesTextDigest(text)
		if last.FamiliesDigest != digest {
			return fmt.Errorf("epoch %d families digest %s != reference %s (%s)",
				last.Epoch, last.FamiliesDigest, digest, *expectFamilies)
		}
	}

	fmt.Fprintf(stdout, "ledgercheck: %d records (%d committed) ok\n", led.Len(), committed)
	return nil
}
