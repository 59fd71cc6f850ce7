package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"profam"
	"profam/internal/ledger"
	"profam/internal/metrics"
	"profam/internal/seq"
	"profam/internal/trace"
)

// submission is one POST /v1/sequences request: its sequences ride into
// an epoch together and the reply channel resolves when that epoch
// commits (or the submission is rejected). done is buffered so a flush
// never blocks on a caller that gave up waiting.
type submission struct {
	names, seqs []string
	enq         time.Time
	done        chan submitReply
}

type submitReply struct {
	epoch int
	err   error
}

// Submit queues the sequences and blocks until the epoch containing
// them commits, returning the committed epoch number. The bounded queue
// provides backpressure: when it is full, Submit blocks until the
// batcher catches up (or ctx/shutdown interrupts).
func (s *Server) Submit(ctx context.Context, names, seqs []string) (int, error) {
	if len(seqs) == 0 {
		return 0, &httpError{http.StatusBadRequest, "no sequences in request"}
	}
	if len(names) != len(seqs) {
		return 0, &httpError{http.StatusBadRequest, "names and sequences length mismatch"}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	s.enqWG.Add(1)
	s.mu.Unlock()

	sub := &submission{names: names, seqs: seqs, enq: time.Now(), done: make(chan submitReply, 1)}
	select {
	case s.subs <- sub:
		s.enqWG.Done()
	case <-s.stop:
		s.enqWG.Done()
		return 0, ErrClosed
	case <-ctx.Done():
		s.enqWG.Done()
		return 0, ctx.Err()
	}
	select {
	case r := <-sub.done:
		return r.epoch, r.err
	case <-ctx.Done():
		// The batch may still commit later; the buffered done channel
		// absorbs the orphaned reply.
		return 0, ctx.Err()
	}
}

// loop is the batcher goroutine: it accumulates submissions and flushes
// them into one incremental epoch when BatchSize sequences are pending
// or the oldest submission has waited BatchWait. On shutdown it drains
// whatever is queued through a final flush before exiting.
func (s *Server) loop() {
	defer close(s.loopDone)
	var batch []*submission
	pending := 0
	var timer *time.Timer
	var timeout <-chan time.Time
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, timeout = nil, nil
		}
		if len(batch) > 0 {
			s.flush(batch)
			batch, pending = nil, 0
			s.pendingBatch.Store(0)
		}
	}
	for {
		select {
		case sub, ok := <-s.subs:
			if !ok {
				flush()
				return
			}
			// Queue telemetry at the dequeue point: how long the oldest
			// submission sat in the channel, and how deep it still is.
			s.reg.Histogram("server_queue_wait_us").Observe(time.Since(sub.enq).Microseconds())
			s.reg.Gauge("server_queue_depth").Set(float64(len(s.subs)))
			batch = append(batch, sub)
			pending += len(sub.seqs)
			s.pendingBatch.Store(int64(pending))
			if timer == nil {
				timer = time.NewTimer(s.cfg.BatchWait)
				timeout = timer.C
			}
			if pending >= s.cfg.BatchSize {
				flush()
			}
		case <-timeout:
			flush()
		}
	}
}

// flush validates the batch, runs one incremental epoch over the
// accepted submissions, publishes the new snapshot, and resolves every
// reply channel. An unnamed sequence is named seq.UnnamedName of the
// corpus ID it will get, before the collision check. Rejections
// (invalid residues; a name already committed, taken by a batch-mate,
// or repeated within the submission) are per-submission: one bad
// request cannot poison its batch-mates, and it claims none of its
// names or IDs. Every epoch attempt — committed, failed or
// aborted — lands one record in the ledger and one outcome-labeled
// ingest-latency observation per accepted submission, so provenance and
// SLO data cover failures too.
func (s *Server) flush(batch []*submission) {
	inBatch := make(map[string]bool)
	var accepted []*submission
	var names, seqs []string
	for _, sub := range batch {
		reject := func(status int, msg string) { sub.done <- submitReply{err: &httpError{status, msg}} }
		bad := false
		mine := make(map[string]bool, len(sub.names))
		subNames := make([]string, len(sub.names))
		for i, res := range sub.seqs {
			name := sub.names[i]
			if name == "" {
				name = seq.UnnamedName(s.state.NumSequences() + len(seqs) + i)
			}
			if !seq.Valid(res) {
				reject(http.StatusBadRequest, fmt.Sprintf("sequence %q has invalid residues or is empty", name))
				bad = true
				break
			}
			if s.committed[name] || inBatch[name] || mine[name] {
				reject(http.StatusConflict, fmt.Sprintf("sequence name %q already exists", name))
				bad = true
				break
			}
			mine[name] = true
			subNames[i] = name
		}
		if bad {
			continue
		}
		maps.Copy(inBatch, mine)
		accepted = append(accepted, sub)
		names = append(names, subNames...)
		seqs = append(seqs, sub.seqs...)
	}
	if len(accepted) == 0 {
		return
	}

	s.building.Store(true)
	defer s.building.Store(false)
	pcfg := s.cfg.Pipeline
	pcfg.TraceCapacity = s.cfg.TraceCapacity
	epoch := s.state.Epoch() + 1
	rec := ledger.Record{
		Epoch:        epoch,
		Fingerprint:  pcfg.Fingerprint(),
		PairBackend:  ledger.PairBackendESA,
		Submissions:  len(accepted),
		NewSequences: len(seqs),
	}
	observeOutcome := func(outcome string) {
		h := s.reg.Histogram(metrics.Name("server_ingest_to_publish_us", "outcome", outcome))
		for _, sub := range accepted {
			h.Observe(time.Since(sub.enq).Microseconds())
		}
	}
	t0 := time.Now()
	res, next, err := profam.RunEpoch(s.epochCtx, s.state, names, seqs, s.cfg.Ranks, pcfg)
	build := time.Since(t0)
	if err != nil {
		// An aborted epoch answers with its own error, which writeErr
		// maps to 503; a failed one carries its 503 itself.
		outcome := ledger.StatusFailed
		reply := error(&httpError{http.StatusServiceUnavailable, err.Error()})
		if errors.Is(err, profam.ErrAborted) {
			outcome, reply = ledger.StatusAborted, err
		}
		var re *profam.RunError
		if errors.As(err, &re) {
			s.failedMu.Lock()
			s.failed = append(s.failed, re.Snapshots...)
			s.failed = s.failed[max(0, len(s.failed)-maxFailedSnapshots):]
			s.failedMu.Unlock()
		}
		s.reg.Counter("server_epoch_failures").Add(1)
		observeOutcome(outcome)
		rec.Status = outcome
		rec.UnixNanos = time.Now().UnixNano()
		rec.CorpusSize = s.state.NumSequences()
		rec.BuildSeconds = build.Seconds()
		rec.Error = err.Error()
		if lerr := s.led.Append(rec); lerr != nil {
			s.log.Error("ledger append", "epoch", epoch, "err", lerr)
		}
		s.log.Error("epoch failed", "sequences", len(seqs), "outcome", outcome, "err", err)
		for _, sub := range accepted {
			sub.done <- submitReply{err: reply}
		}
		return
	}
	s.state = next
	for name := range inBatch {
		s.committed[name] = true
	}
	s.snap.Store(newSnapshot(next, res, build.Seconds()))
	s.lastEpochSec.Store(math.Float64bits(build.Seconds()))
	s.recordCommit(&rec, res, next, build)

	s.reg.Counter("server_epochs").Add(1)
	s.reg.Counter("server_sequences_ingested").Add(int64(len(seqs)))
	s.reg.Histogram("server_batch_size").Observe(int64(len(seqs)))
	s.reg.Histogram("server_batch_submissions").Observe(int64(len(accepted)))
	s.reg.Gauge("server_epoch").Set(float64(next.Epoch()))
	s.reg.Gauge("server_corpus_size").Set(float64(next.NumSequences()))
	s.reg.Gauge("server_families").Set(float64(len(res.Families)))
	observeOutcome(ledger.StatusCommitted)
	for _, sub := range accepted {
		sub.done <- submitReply{epoch: next.Epoch()}
	}
	s.log.Info("epoch committed",
		"epoch", next.Epoch(), "new", len(seqs), "corpus", next.NumSequences(),
		"families", len(res.Families), "build", build.Round(time.Millisecond))
}

// recordCommit finalizes and appends the committed epoch's provenance
// record and retains/persists its trace timeline. Runs on the batcher
// goroutine after the snapshot swap, so the ledger record is visible no
// later than the families it describes.
func (s *Server) recordCommit(rec *ledger.Record, res *profam.Result, next *profam.EpochState, build time.Duration) {
	rec.Status = ledger.StatusCommitted
	rec.UnixNanos = time.Now().UnixNano()
	rec.CorpusSize = next.NumSequences()
	rec.Families = len(res.Families)
	rec.BuildSeconds = build.Seconds()

	set := next.Set()
	inputNames := make([]string, set.Len())
	for _, sq := range set.Seqs {
		inputNames[sq.ID] = sq.Name
	}
	rec.InputDigest = ledger.NamesDigest(inputNames)
	if digest, err := ledger.FamiliesDigest(set, res); err != nil {
		s.log.Error("families digest", "epoch", rec.Epoch, "err", err)
	} else {
		rec.FamiliesDigest = digest
	}

	if m := res.Metrics; m != nil {
		rec.Demotions = m.CounterValue("pipeline_epoch_demotions")
		rec.ComponentsCached = m.CounterValue("pipeline_components_cached")
		rec.HeapPeakBytes = int64(m.GaugeValue(metrics.HeapPeakGauge))
		if len(m.Phases) > 0 {
			rec.PhaseSeconds = make(map[string]float64, len(m.Phases))
			for _, ph := range m.Phases {
				rec.PhaseSeconds[ph.Name] = ph.MaxSeconds
			}
		}
	}
	if err := s.led.Append(*rec); err != nil {
		s.log.Error("ledger append", "epoch", rec.Epoch, "err", err)
	}

	if res.Trace != nil {
		// Tag a shallow copy with the epoch so the shared Result keeps
		// its untagged timeline.
		tl := *res.Trace
		tl.Epoch = rec.Epoch
		s.retainTrace(rec.Epoch, &tl)
		if s.cfg.TraceDir != "" {
			path := filepath.Join(s.cfg.TraceDir, fmt.Sprintf("epoch_%04d.trace.json", rec.Epoch))
			if err := writeTraceFile(path, &tl); err != nil {
				s.log.Error("trace persist", "epoch", rec.Epoch, "err", err)
			}
		}
	}
}

func writeTraceFile(path string, tl *trace.Timeline) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeJSON(f, tl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
