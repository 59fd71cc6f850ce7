// Package server implements profamd's resident clustering service: an
// HTTP front end over the profam pipeline with batched ingest,
// incremental epochs, and immutable published snapshots.
//
// Submissions to POST /v1/sequences land in a batcher and coalesce into
// one incremental pipeline epoch per flush (flush on batch size or max
// wait, backpressure through a bounded queue). Each epoch clusters only
// the new arrivals against the committed state and publishes a fresh
// Snapshot by atomic pointer swap; queries keep answering from the old
// snapshot while the next epoch builds. The determinism contract of
// profam.RunEpoch guarantees the served families are byte-identical to a
// cold profam run over the union corpus.
//
// Observability is first-class: every epoch attempt appends a
// provenance record to the ledger (GET /v1/epochs), each epoch's merged
// trace timeline is retained in a bounded ring (GET
// /debug/epochs/{n}/trace) and optionally persisted to TraceDir, and a
// middleware + runtime sampler feed per-route HTTP series and process
// health into the registry behind GET /metrics.
package server

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"profam"
	"profam/internal/ledger"
	"profam/internal/metrics"
	"profam/internal/trace"
)

// ErrClosed is returned for submissions after shutdown began.
var ErrClosed = errors.New("server: shutting down")

// Config holds the service knobs. The zero value is usable.
type Config struct {
	// Pipeline is the clustering configuration shared by every epoch.
	// Family-affecting knobs are fingerprint-locked after the first
	// epoch (see profam.ErrConfigChanged).
	Pipeline profam.Config
	// Ranks is the number of in-process ranks per epoch (default 1).
	Ranks int
	// BatchSize flushes the batcher once this many sequences are
	// pending (default 256).
	BatchSize int
	// BatchWait flushes a non-empty batch after this long even if
	// BatchSize was not reached (default 200ms).
	BatchWait time.Duration
	// QueueCap bounds the submission queue; full-queue submissions
	// block (backpressure) until the batcher catches up (default 64).
	QueueCap int
	// Ledger receives one provenance record per epoch attempt. nil uses
	// a memory-only ledger, so /v1/epochs always works; pass
	// ledger.Open's result for a durable JSONL log.
	Ledger *ledger.Ledger
	// TraceCapacity enables per-epoch event tracing: each rank of every
	// epoch records up to this many events, merged into the epoch's
	// timeline. 0 disables tracing (no ring, 404 from the trace
	// endpoint).
	TraceCapacity int
	// TraceHistory bounds the in-memory ring of recent epoch timelines
	// served at /debug/epochs/{n}/trace (default 8).
	TraceHistory int
	// TraceDir, when non-empty, persists every epoch's timeline as
	// Chrome trace JSON (epoch_NNNN.trace.json) — the daemon-side
	// analogue of profam's -trace-out.
	TraceDir string
	// HealthInterval is the runtime health sampling period — goroutine
	// count, heap gauges, GC pause histogram (default 10s).
	HealthInterval time.Duration
	// Logger receives service logs. nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 200 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Ledger == nil {
		c.Ledger = ledger.NewMemory()
	}
	if c.TraceHistory <= 0 {
		c.TraceHistory = 8
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = trace.NopLogger()
	}
	return c
}

// Server is the resident clustering service. Create with New, serve its
// Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	log   *slog.Logger
	reg   *metrics.Registry
	led   *ledger.Ledger
	start time.Time

	snap atomic.Pointer[Snapshot]

	subs     chan *submission
	stop     chan struct{} // closed when Shutdown begins: unblocks enqueuers
	loopDone chan struct{}

	// epochCtx is every epoch's context; a forced Shutdown cancels it,
	// aborting the in-flight epoch.
	epochCtx     context.Context
	cancelEpochs context.CancelFunc

	mu     sync.Mutex
	closed bool
	enqWG  sync.WaitGroup

	building     atomic.Bool
	pendingBatch atomic.Int64  // sequences accumulated toward the next flush
	lastEpochSec atomic.Uint64 // math.Float64bits of the last build's wall seconds

	stopHealth func()

	// traces is the bounded ring of recent epoch timelines, keyed by
	// epoch number; traceOrder tracks insertion for eviction.
	traceMu    sync.RWMutex
	traces     map[int]*trace.Timeline
	traceOrder []int

	// failed holds the last maxFailedSnapshots per-rank metrics
	// snapshots of failed and aborted epochs.
	failedMu sync.Mutex
	failed   []metrics.Snapshot

	// state and committed are owned by the batcher goroutine.
	state     *profam.EpochState
	committed map[string]bool
}

// New starts a Server (its batcher goroutine runs until Shutdown).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	start := time.Now()
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		reg:       metrics.New(0, func() float64 { return time.Since(start).Seconds() }),
		led:       cfg.Ledger,
		start:     start,
		subs:      make(chan *submission, cfg.QueueCap),
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		traces:    make(map[int]*trace.Timeline),
		state:     profam.NewEpochState(),
		committed: make(map[string]bool),
	}
	s.epochCtx, s.cancelEpochs = context.WithCancel(context.Background())
	// The service registry joins the live set so /metrics merges it with
	// the per-rank pipeline registries of whatever epoch is in flight.
	metrics.RegisterLive(s.reg)
	s.stopHealth = metrics.StartRuntimeSampler(s.reg, cfg.HealthInterval)
	go s.loop()
	return s
}

// Snapshot returns the currently published snapshot (nil before the
// first epoch commits).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Registry exposes the service metrics registry (for final flushes).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Ledger exposes the epoch provenance ledger.
func (s *Server) Ledger() *ledger.Ledger { return s.led }

// EpochTrace returns epoch n's retained timeline, or nil if tracing is
// off or the epoch has been evicted from the ring.
func (s *Server) EpochTrace(n int) *trace.Timeline {
	s.traceMu.RLock()
	defer s.traceMu.RUnlock()
	return s.traces[n]
}

// TracedEpochs lists the epoch numbers currently in the trace ring,
// oldest first.
func (s *Server) TracedEpochs() []int {
	s.traceMu.RLock()
	defer s.traceMu.RUnlock()
	return append([]int(nil), s.traceOrder...)
}

// retainTrace inserts one epoch's timeline into the ring, evicting the
// oldest beyond TraceHistory.
func (s *Server) retainTrace(epoch int, tl *trace.Timeline) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if _, dup := s.traces[epoch]; !dup {
		s.traceOrder = append(s.traceOrder, epoch)
	}
	s.traces[epoch] = tl
	for len(s.traceOrder) > s.cfg.TraceHistory {
		evict := s.traceOrder[0]
		s.traceOrder = s.traceOrder[1:]
		delete(s.traces, evict)
	}
}

// maxFailedSnapshots bounds the failed epochs' snapshots a Server keeps:
// one failed 32-rank epoch, with slack.
const maxFailedSnapshots = 64

// FailedSnapshots returns the per-rank metrics snapshots of the most
// recent failed or aborted epochs, so a final report covers the work
// they did.
func (s *Server) FailedSnapshots() []metrics.Snapshot {
	s.failedMu.Lock()
	defer s.failedMu.Unlock()
	return append([]metrics.Snapshot(nil), s.failed...)
}

// lastEpochSeconds returns the wall-clock duration of the most recent
// epoch build (0 before the first commit).
func (s *Server) lastEpochSeconds() float64 {
	return math.Float64frombits(s.lastEpochSec.Load())
}

// Shutdown drains the service: no new submissions are accepted, queued
// batches are flushed through their epochs, and the call returns once
// the batcher has exited. If ctx expires first, the in-flight epoch is
// cancelled: it fails with profam.ErrAborted, its ranks' snapshots join
// FailedSnapshots, and remaining batches are rejected the same way.
// Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
		// Every enqueuer either queued its submission or saw stop; after
		// Wait no goroutine can touch s.subs, so closing it is safe.
		s.enqWG.Wait()
		close(s.subs)
	}
	finish := func() {
		s.cancelEpochs()
		s.mu.Lock()
		if s.stopHealth != nil {
			s.stopHealth()
			s.stopHealth = nil
		}
		s.mu.Unlock()
		metrics.UnregisterLive(s.reg)
	}
	select {
	case <-s.loopDone:
		finish()
		return nil
	case <-ctx.Done():
		s.cancelEpochs()
		<-s.loopDone
		finish()
		return ctx.Err()
	}
}
