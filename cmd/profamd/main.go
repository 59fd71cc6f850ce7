// Command profamd is the resident protein-family clustering service: a
// long-lived HTTP daemon wrapping the profam pipeline with batched
// ingest, incremental epochs, and immutable published snapshots.
//
// Example:
//
//	profamd -addr localhost:8077 -p 2 -batch-size 512 -batch-wait 250ms
//
// Submissions (POST /v1/sequences, FASTA or JSON body) coalesce in a
// batcher and commit as incremental clustering epochs; family queries
// (GET /v1/families, /v1/families/{id}, /v1/sequences/{id}/family)
// answer from the last committed snapshot, so reads never block on a
// building epoch. The served families are byte-identical to a cold
// profam run over the union corpus.
//
// SIGINT/SIGTERM drains gracefully: in-flight batches commit their
// epochs within -drain-timeout, then the HTTP listener closes. A second
// signal — or the timeout — cancels the in-flight epoch's context; the
// failed epoch's per-rank metrics still reach -metrics-out.
//
// Observability: -ledger appends one provenance record per epoch (served
// at GET /v1/epochs and /v1/epochs/{n}), each epoch's trace timeline is
// retained for GET /debug/epochs/{n}/trace and persisted under
// -trace-dir, and GET /metrics exports per-route HTTP series plus
// runtime health alongside the pipeline metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"profam"
	"profam/internal/ledger"
	"profam/internal/metrics"
	"profam/internal/server"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a connection that never finishes them cannot hold
// a socket and a goroutine forever. Bodies and responses stay unbounded:
// POST /v1/sequences legitimately blocks until its epoch publishes.
var readHeaderTimeout = 10 * time.Second

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sig); err != nil {
		fmt.Fprintf(os.Stderr, "profamd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon behind a testable seam: parse flags, serve until a
// signal arrives (or the listener fails), drain, flush observability.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("profamd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	addr := fs.String("addr", "localhost:8077", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts using port 0)")
	p := fs.Int("p", 1, "ranks per clustering epoch")
	batchSize := fs.Int("batch-size", 256, "flush an epoch once this many sequences are pending")
	batchWait := fs.Duration("batch-wait", 200*time.Millisecond, "flush a non-empty batch after this long even below -batch-size")
	queueCap := fs.Int("queue-cap", 64, "bounded submission queue; full-queue submissions block (backpressure)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for committing in-flight batches before the epoch is aborted")
	metricsOut := fs.String("metrics-out", "", "write the final merged metrics report as JSON to this file on exit (- for stdout)")
	ledgerPath := fs.String("ledger", "", "append one provenance record per epoch to this JSONL file (crash-safe; replayed on restart). Empty keeps the ledger in memory only")
	traceDir := fs.String("trace-dir", "", "persist each epoch's trace as Chrome JSON (epoch_NNNN.trace.json) under this directory")
	traceCap := fs.Int("trace-cap", 1<<15, "per-rank trace-event ring capacity per epoch (0 disables epoch tracing)")
	epochHistory := fs.Int("epoch-history", 8, "number of recent epoch timelines retained for /debug/epochs/{n}/trace")
	healthInterval := fs.Duration("health-interval", 10*time.Second, "runtime health sampling period (goroutines, heap, GC pauses)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON lines instead of text")

	var cfg profam.Config
	fs.IntVar(&cfg.Psi, "psi", 8, "minimum maximal-match length for promising pairs")
	fs.Float64Var(&cfg.ContainIdentity, "contain-identity", 0.95, "Definition 1 identity cutoff")
	fs.Float64Var(&cfg.ContainCoverage, "contain-coverage", 0.95, "Definition 1 coverage cutoff")
	fs.Float64Var(&cfg.OverlapSimilarity, "overlap-similarity", 0.30, "Definition 2 similarity cutoff")
	fs.Float64Var(&cfg.OverlapCoverage, "overlap-coverage", 0.80, "Definition 2 long-sequence coverage cutoff")
	fs.IntVar(&cfg.MinComponentSize, "min-component", 5, "minimum connected component size")
	fs.IntVar(&cfg.MinFamilySize, "min-family", 5, "minimum dense subgraph size")
	fs.IntVar(&cfg.ThreadsPerRank, "threads", 0, "goroutines per rank (0 = auto)")
	reduction := fs.String("reduction", "global", "bipartite reduction: global (B_d) or domain (B_m)")

	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	switch *reduction {
	case "global":
		cfg.Reduction = profam.GlobalSimilarity
	case "domain":
		cfg.Reduction = profam.DomainBased
	default:
		return fmt.Errorf("unknown -reduction %q (want global or domain)", *reduction)
	}
	logger, err := buildLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	cfg.Logger = logger

	led, err := ledger.Open(*ledgerPath)
	if err != nil {
		return fmt.Errorf("opening ledger: %w", err)
	}
	defer led.Close()
	if led.Recovered() {
		logger.Warn("ledger recovered from torn tail", "path", *ledgerPath, "records", led.Len())
	} else if led.Len() > 0 {
		logger.Info("ledger replayed", "path", *ledgerPath, "records", led.Len())
	}

	srv := server.New(server.Config{
		Pipeline:       cfg,
		Ranks:          *p,
		BatchSize:      *batchSize,
		BatchWait:      *batchWait,
		QueueCap:       *queueCap,
		Ledger:         led,
		TraceCapacity:  *traceCap,
		TraceHistory:   *epochHistory,
		TraceDir:       *traceDir,
		HealthInterval: *healthInterval,
		Logger:         logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("profamd serving", "addr", ln.Addr().String(),
		"ranks", *p, "batch_size", *batchSize, "batch_wait", *batchWait)

	var runErr error
	select {
	case s := <-sig:
		logger.Info("signal received; draining", "signal", s, "timeout", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			// A second signal forces the abort immediately.
			select {
			case s := <-sig:
				logger.Warn("second signal; aborting in-flight epoch", "signal", s)
				cancel()
			case <-drainCtx.Done():
			}
		}()
		if err := srv.Shutdown(drainCtx); err != nil {
			logger.Warn("drain incomplete; epoch aborted", "err", err)
		}
		cancel()
		httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(httpCtx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
		hcancel()
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			runErr = err
		}
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		_ = srv.Shutdown(dctx)
		cancel()
	}

	if err := flushMetrics(*metricsOut, srv, stdout, logger); err != nil && runErr == nil {
		runErr = err
	}
	logger.Info("profamd stopped")
	return runErr
}

// flushMetrics writes the final merged metrics report: the service
// registry plus the per-rank snapshots of failed and aborted epochs.
func flushMetrics(path string, srv *server.Server, stdout io.Writer, logger *slog.Logger) error {
	if path == "" {
		return nil
	}
	rep := metrics.Merge(append([]metrics.Snapshot{srv.Registry().Snapshot()}, srv.FailedSnapshots()...))
	if path == "-" {
		return rep.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("metrics written", "path", path)
	return nil
}

func buildLogger(w io.Writer, level string, jsonOut bool) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return slog.New(slog.NewTextHandler(w, opts)), nil
}
