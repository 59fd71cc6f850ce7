// Package ledger is profamd's epoch provenance ledger: an append-only,
// crash-safe JSONL log with one record per epoch attempt — committed,
// failed or aborted — carrying everything needed to audit what the
// service published and why it is reproducible.
//
// Each committed record pins the epoch's inputs (submission and
// sequence counts, a digest of the union corpus's sequence names in ID
// order), its configuration (the family-affecting fingerprint and the
// pair backend), its output (family count and a digest of the canonical
// family listing — the exact bytes `profam -out` would write for the
// union corpus), and its execution shape (per-phase critical-path
// durations lifted from the merged metrics report, demotion and
// family-cache counters, the peak-heap probe, wall-clock build time).
// Because served families are byte-identical to a cold run over the
// union corpus (the determinism contract, DESIGN.md §9), the families
// digest of every committed record is *replayable*: a cold `profam` run
// over the same inputs must reproduce it, and `cmd/ledgercheck` plus
// the `./ci.sh e2e` gate enforce exactly that.
//
// Crash safety is on the read side: a process killed mid-append leaves
// at most one truncated trailing line, which Open tolerates — complete
// records are kept, the partial tail is discarded (and reported via
// Recovered), and the file is truncated back to the last good byte so
// subsequent appends produce a valid log again. Every append is
// fsynced; at one record per epoch the cost is noise. Because appends
// are line-at-a-time, only the last line can be torn: a bad line with
// more records after it is corruption, not a crash, and Open refuses
// the file rather than truncate committed history.
package ledger

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"profam"
	"profam/internal/report"
	"profam/internal/seq"
)

// Epoch outcome values for Record.Status.
const (
	StatusCommitted = "committed"
	StatusFailed    = "failed"
	StatusAborted   = "aborted"
)

// PairBackendESA is the one value Record.PairBackend and /v1/status's
// "pair_backend" take: the suffix-array index of internal/esa.
const PairBackendESA = "esa"

// Record is one epoch's provenance entry. All fields are plain data so
// the JSONL encoding round-trips byte-identically (map keys are emitted
// sorted by encoding/json).
type Record struct {
	// Epoch is the epoch number this record describes: the committed
	// epoch for StatusCommitted, the epoch the attempt would have
	// committed for failed/aborted records (so retries repeat a number).
	Epoch int `json:"epoch"`
	// Status is committed, failed or aborted.
	Status string `json:"status"`
	// UnixNanos is the wall-clock commit (or failure) instant.
	UnixNanos int64 `json:"unix_nanos"`
	// Fingerprint is the canonical family-affecting config fingerprint
	// every epoch of one corpus must share (profam.Config.Fingerprint).
	Fingerprint string `json:"config_fingerprint"`
	// PairBackend names the maximal-match index the epoch ran on. Every
	// record this build writes carries PairBackendESA; the field stays in
	// the schema so ledgers from builds that still had a backend switch
	// ("gst", "sparse") keep decoding.
	PairBackend string `json:"pair_backend"`
	// Submissions and NewSequences count the batch that rode into this
	// epoch; CorpusSize is the union corpus after it.
	Submissions  int `json:"submissions"`
	NewSequences int `json:"new_sequences"`
	CorpusSize   int `json:"corpus_size"`
	// InputDigest is NamesDigest over the union corpus's sequence names
	// in ID (arrival) order — it pins exactly which inputs, in which
	// order, produced the output.
	InputDigest string `json:"input_digest,omitempty"`
	// Families is the number of served families; FamiliesDigest is
	// FamiliesDigest over the canonical family listing, reproducible by
	// a cold profam run over the same corpus.
	Families       int    `json:"families"`
	FamiliesDigest string `json:"families_digest,omitempty"`
	// Demotions and ComponentsCached are the epoch's incremental-path
	// counters (pipeline_epoch_demotions, pipeline_components_cached).
	Demotions        int64 `json:"demotions"`
	ComponentsCached int64 `json:"components_cached"`
	// PhaseSeconds maps phase name to its critical-path duration (the
	// max per-rank total, metrics.PhaseTiming.MaxSeconds).
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// HeapPeakBytes is the rank-0 pipeline_heap_peak_bytes probe.
	HeapPeakBytes int64 `json:"heap_peak_bytes,omitempty"`
	// BuildSeconds is the epoch's wall-clock build time.
	BuildSeconds float64 `json:"build_seconds"`
	// Error carries the failure for failed/aborted records.
	Error string `json:"error,omitempty"`
}

// Ledger is the append-only record log. A Ledger opened with an empty
// path is memory-only (the daemon without -ledger still serves
// /v1/epochs); otherwise records persist as one JSON line each.
// All methods are safe for concurrent use: HTTP readers list records
// while the batcher appends.
type Ledger struct {
	mu        sync.RWMutex
	path      string
	f         *os.File
	recs      []Record
	recovered bool
}

// NewMemory returns a memory-only ledger.
func NewMemory() *Ledger { return &Ledger{} }

// Open loads (or creates) the ledger at path, replaying every complete
// record into memory. A truncated or unparsable final line — the
// signature of a crash mid-append — is tolerated: complete records are
// kept and the file is truncated back to the end of the last good line
// so the next Append continues a valid log. A bad line followed by any
// further non-empty line is an error, and the file is left untouched.
// An empty path returns a memory-only ledger.
func Open(path string) (*Ledger, error) {
	if path == "" {
		return NewMemory(), nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Ledger{path: path, f: f}
	good := int64(0)
	bad := 0 // line number of the first unparsable line, 0 if none
	r := bufio.NewReader(f)
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		complete := err == nil
		if len(bytes.TrimSpace(line)) > 0 {
			if bad > 0 {
				// Only the final line can be torn; content after a bad
				// line means the bad line is corruption, not a crash.
				f.Close()
				return nil, fmt.Errorf("ledger: %s: line %d is corrupt but line %d follows it; refusing to truncate committed records", path, bad, lineNo)
			}
			var rec Record
			if complete && json.Unmarshal(line, &rec) == nil {
				l.recs = append(l.recs, rec)
				good += int64(len(line))
			} else {
				bad = lineNo // a torn tail if nothing follows it
			}
		} else if complete && bad == 0 {
			good += int64(len(line))
		}
		if err != nil {
			if err != io.EOF {
				f.Close()
				return nil, err
			}
			break
		}
	}
	l.recovered = bad > 0
	if l.recovered {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Recovered reports whether Open found (and discarded) a truncated or
// unparsable trailing line.
func (l *Ledger) Recovered() bool {
	if l == nil {
		return false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.recovered
}

// Path returns the backing file path ("" for memory-only ledgers).
func (l *Ledger) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append writes one record: a single JSON line, fsynced before the
// in-memory view exposes it, so a record visible over /v1/epochs is
// already durable. Append on a nil ledger is a no-op.
func (l *Ledger) Append(rec Record) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if _, err := l.f.Write(line); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.recs = append(l.recs, rec)
	return nil
}

// Len returns the number of records.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.recs)
}

// Records returns a copy of every record in append order.
func (l *Ledger) Records() []Record {
	if l == nil {
		return nil
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Record(nil), l.recs...)
}

// Epoch returns the latest record for the given epoch number (a failed
// attempt and its successful retry share a number; the retry wins).
func (l *Ledger) Epoch(n int) (Record, bool) {
	if l == nil {
		return Record{}, false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].Epoch == n {
			return l.recs[i], true
		}
	}
	return Record{}, false
}

// Close releases the backing file. Further appends stay memory-only.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// FamiliesDigest is the replayable output digest: SHA-256 over the
// canonical family listing (the exact bytes report.Families writes —
// the same bytes `profam -out` emits and `GET /v1/families?format=text`
// serves). Byte-identical families ⇒ identical digest, so a ledger
// record's digest must match a cold run over the recorded inputs.
func FamiliesDigest(set *seq.Set, res *profam.Result) (string, error) {
	h := sha256.New()
	if err := report.Families(h, set, res); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// FamiliesTextDigest digests an already-rendered canonical family
// listing (e.g. a served or cold `families.txt` artifact) the same way
// FamiliesDigest does.
func FamiliesTextDigest(text []byte) string {
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}

// NamesDigest digests a sequence-name list in order, length-prefixing
// each name so concatenation cannot collide ("ab","c" ≠ "a","bc").
func NamesDigest(names []string) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(names)))
	h.Write(n[:])
	for _, name := range names {
		binary.LittleEndian.PutUint64(n[:], uint64(len(name)))
		h.Write(n[:])
		io.WriteString(h, name)
	}
	return hex.EncodeToString(h.Sum(nil))
}
