// Command profam runs the full protein-family identification pipeline on
// a FASTA file of amino-acid sequences.
//
// Example:
//
//	profam -in orfs.fasta -p 8 -out families.txt
//	profam -in orfs.fasta -p 128 -sim            # virtual-time scaling run
//	profam -in orfs.fasta -reduction domain      # B_m domain families
//	profam -in orfs.fasta -p 2 -threads 4        # hybrid: 2 ranks × 4 goroutines
//	profam -in orfs.fasta -p 8 -trace-out trace.json -metrics-out metrics.json
//
// Hybrid execution: -threads bounds the goroutine pool each rank uses
// for alignment batches, index construction and per-component phase 3+4
// jobs. 0 (the default) picks max(1, NumCPU/p) for wall-clock runs and
// keeps simulated ranks single-threaded; the family output is identical
// for every value.
//
// Observability: -trace-out records per-rank protocol and communication
// events into bounded ring buffers (-trace-cap events per rank) and
// exports the merged job timeline as Chrome trace-event JSON — load it
// at https://ui.perfetto.dev — plus a straggler report on stderr.
// -metrics-out writes the merged counter/gauge/histogram report as JSON
// and prints a summary table. -log-level/-log-json control structured
// pipeline logs; -progress emits periodic in-flight summaries; and
// -pprof-addr serves /debug/pprof/ plus a Prometheus /metrics endpoint
// reflecting the live run. All report files are still written when the
// run fails partway, from the last per-rank snapshots.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"profam"
	"profam/internal/metrics"
	"profam/internal/quality"
	"profam/internal/report"
	"profam/internal/seq"
	"profam/internal/trace"
	"profam/internal/workload"
)

// jsonFamily is the JSON output schema for one family.
type jsonFamily struct {
	Size       int      `json:"size"`
	MeanDegree float64  `json:"mean_degree"`
	Density    float64  `json:"density"`
	Members    []string `json:"members"`
}

type jsonReport struct {
	Input        int          `json:"input_sequences"`
	NonRedundant int          `json:"non_redundant"`
	Components   int          `json:"components"`
	Families     []jsonFamily `json:"families"`
}

func writeFamilyJSON(w io.Writer, set *seq.Set, res *profam.Result) error {
	rep := jsonReport{
		Input:        res.NumInput,
		NonRedundant: res.NumNonRedundant,
		Components:   len(res.Components),
	}
	for _, fam := range res.Families {
		jf := jsonFamily{Size: fam.Size(), MeanDegree: fam.MeanDegree, Density: fam.Density}
		for _, id := range fam.Members {
			jf.Members = append(jf.Members, set.Get(id).Name)
		}
		rep.Families = append(rep.Families, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "profam: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole CLI behind a testable seam: parse args, execute the
// pipeline, write every requested artifact to stdout/stderr or files.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("profam", flag.ContinueOnError)
	fs.SetOutput(stderr)

	in := fs.String("in", "", "input FASTA file (required)")
	out := fs.String("out", "-", "output families file (- for stdout)")
	p := fs.Int("p", 1, "number of ranks")
	sim := fs.Bool("sim", false, "run on the virtual-time simulator instead of goroutine ranks")
	reduction := fs.String("reduction", "global", "bipartite reduction: global (B_d) or domain (B_m)")
	truthPath := fs.String("truth", "", "optional truth TSV (from datagen) to score the clustering against")
	jsonOut := fs.Bool("json", false, "write families as JSON instead of text")
	reportPath := fs.String("report", "", "write a full text report (summary, histogram, MSA blocks) to this file")
	metricsOut := fs.String("metrics-out", "", "write the merged metrics report (counters, gauges, histograms, phase spans) as JSON to this file (- for stdout) and print a summary table")
	traceOut := fs.String("trace-out", "", "record per-rank protocol/comm events and write the merged timeline as Chrome trace-event JSON to this file (- for stdout); also prints a straggler report")
	traceCap := fs.Int("trace-cap", 1<<16, "per-rank trace ring-buffer capacity in events (oldest overwritten beyond it; only with -trace-out)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
	progress := fs.Duration("progress", 0, "emit an in-flight progress line at this interval (e.g. 2s; 0 disables)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof debug endpoints and a Prometheus /metrics endpoint on this address (e.g. localhost:6060); empty disables")

	var cfg profam.Config
	fs.IntVar(&cfg.Psi, "psi", 8, "minimum maximal-match length for promising pairs")
	fs.Float64Var(&cfg.ContainIdentity, "contain-identity", 0.95, "Definition 1 identity cutoff")
	fs.Float64Var(&cfg.ContainCoverage, "contain-coverage", 0.95, "Definition 1 coverage cutoff")
	fs.Float64Var(&cfg.OverlapSimilarity, "overlap-similarity", 0.30, "Definition 2 similarity cutoff")
	fs.Float64Var(&cfg.OverlapCoverage, "overlap-coverage", 0.80, "Definition 2 long-sequence coverage cutoff")
	fs.Float64Var(&cfg.EdgeSimilarity, "edge-similarity", 0, "bipartite edge similarity cutoff (0 = overlap cutoff)")
	fs.IntVar(&cfg.W, "w", 10, "word length for the domain-based reduction")
	fs.IntVar(&cfg.S1, "s1", 5, "shingle size, pass I")
	fs.IntVar(&cfg.C1, "c1", 300, "shingle count, pass I")
	fs.IntVar(&cfg.S2, "s2", 5, "shingle size, pass II")
	fs.IntVar(&cfg.C2, "c2", 100, "shingle count, pass II")
	fs.Float64Var(&cfg.Tau, "tau", 0.5, "A≈B post-test threshold")
	fs.IntVar(&cfg.MinComponentSize, "min-component", 5, "minimum connected component size")
	fs.IntVar(&cfg.MinFamilySize, "min-family", 5, "minimum dense subgraph size")
	fs.Int64Var(&cfg.Seed, "seed", 0, "shingle permutation seed (0 = default)")
	fs.IntVar(&cfg.ThreadsPerRank, "threads", 0,
		"goroutines per rank for alignment/index/component work (0 = auto: max(1, NumCPU/p); simulated runs default to 1)")

	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *in == "" {
		fs.Usage()
		return errors.New("-in is required")
	}
	switch *reduction {
	case "global":
		cfg.Reduction = profam.GlobalSimilarity
	case "domain":
		cfg.Reduction = profam.DomainBased
	default:
		return fmt.Errorf("unknown -reduction %q (want global or domain)", *reduction)
	}
	if *traceOut != "" {
		if *traceCap <= 0 {
			return fmt.Errorf("-trace-cap must be positive with -trace-out, got %d", *traceCap)
		}
		cfg.TraceCapacity = *traceCap
	}

	logger, err := buildLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	cfg.Logger = logger

	if *pprofAddr != "" {
		go serveDebug(*pprofAddr, logger)
		logger.Info("debug server", "pprof", "http://"+*pprofAddr+"/debug/pprof/", "metrics", "http://"+*pprofAddr+"/metrics")
	}

	set, err := seq.ReadFASTAFile(*in)
	if err != nil {
		return err
	}
	logger.Info("read sequences", "n", set.Len(), "mean_length", fmt.Sprintf("%.0f", set.MeanLength()))

	stopProgress := startProgress(*progress, logger)
	res, span, runErr := profam.RunSet(set, *p, *sim, cfg)
	stopProgress()

	// Flush the observability artifacts before acting on the run error:
	// a failed run still exports its last per-rank metrics snapshots and
	// trace buffers, which is exactly when a timeline is most useful.
	if err := flushObservability(*metricsOut, *traceOut, res, stdout, stderr, logger); err != nil {
		if runErr != nil {
			logger.Error("observability flush failed", "err", err)
			return runErr
		}
		return err
	}
	if runErr != nil {
		return runErr
	}

	if err := writeTo(*out, stdout, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		if *jsonOut {
			if err := writeFamilyJSON(bw, set, res); err != nil {
				return err
			}
		} else if err := report.Families(bw, set, res); err != nil {
			return err
		}
		return bw.Flush()
	}); err != nil {
		return err
	}

	if *reportPath != "" {
		if err := writeTo(*reportPath, stdout, func(w io.Writer) error {
			return report.Text(w, set, res, report.Options{MSA: true})
		}); err != nil {
			return err
		}
		logger.Info("report written", "path", *reportPath)
	}

	if *truthPath != "" {
		truth, err := workload.ReadTruthFile(*truthPath, set)
		if err != nil {
			return err
		}
		conf, err := quality.Compare(res.FamilyLabels(), truth.Label)
		if err != nil {
			return err
		}
		logger.Info("quality vs truth", "confusion", fmt.Sprint(conf))
	}

	mode := "wall-clock"
	if *sim {
		mode = "virtual"
	}
	logger.Info("phase rr", "generated", res.RR.PairsGenerated, "aligned", res.RR.PairsAligned,
		"work_reduction", fmt.Sprintf("%.1f%%", 100*res.RR.WorkReduction()), "seconds", res.RR.Time)
	logger.Info("phase ccd", "generated", res.CCD.PairsGenerated, "aligned", res.CCD.PairsAligned,
		"closure_skipped", res.CCD.PairsClosure, "seconds", res.CCD.Time)
	logger.Info("phase bgg+dsd", "bgg_seconds", res.BGGTime, "dsd_seconds", res.DSDTime)
	logger.Info("pipeline finished",
		"components", len(res.Components), "families", len(res.Families),
		"seqs_in_families", res.SeqsInFamilies(), "mode", mode, "seconds", span, "ranks", *p)
	return nil
}

// buildLogger makes the CLI/pipeline logger writing to w at the named
// level, as logfmt-style text or JSON lines.
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

// serveDebug runs the debug HTTP server: net/http/pprof (registered on
// the default mux by its import) under /debug/pprof/, plus a Prometheus
// text-exposition /metrics endpoint reflecting the live per-rank
// registries of whatever run is in flight.
func serveDebug(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		rep := metrics.Merge(metrics.LiveSnapshots())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := rep.WritePrometheus(w); err != nil {
			logger.Error("metrics endpoint", "err", err)
		}
	})
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug server", "err", err)
	}
}

// startProgress launches the in-flight progress ticker and returns its
// stop function. Every interval it merges the live per-rank registries
// and logs headline totals; interval 0 disables and returns a no-op.
func startProgress(interval time.Duration, logger *slog.Logger) func() {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				rep := metrics.Merge(metrics.LiveSnapshots())
				if rep.NumRanks == 0 {
					continue
				}
				logger.Info("progress",
					"ranks", rep.NumRanks,
					"pairs_aligned", counterTotal(rep, "pace_pairs_aligned"),
					"msgs_sent", counterTotal(rep, "mpi_msgs_sent"),
					"families", counterTotal(rep, "pipeline_families_emitted"),
					"trace_dropped", counterTotal(rep, "trace_dropped"))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// counterTotal sums every counter with the given base name across all
// label sets ("name" itself plus any "name{...}" variant).
func counterTotal(rep *metrics.Report, base string) int64 {
	var n int64
	for name, v := range rep.Counters {
		if name == base || strings.HasPrefix(name, base+"{") {
			n += v
		}
	}
	return n
}

// flushObservability writes the metrics and trace artifacts. It prefers
// the merged job-wide report/timeline off a successful Result and falls
// back to the failed-run stashes (the last snapshot each rank saved on
// its way out) so a run that dies partway still leaves evidence behind.
func flushObservability(metricsOut, traceOut string, res *profam.Result, stdout, stderr io.Writer, logger *slog.Logger) error {
	var rep *metrics.Report
	var tl *trace.Timeline
	if res != nil {
		rep, tl = res.Metrics, res.Trace
	}
	if rep == nil {
		if snaps := metrics.TakeFailed(); len(snaps) > 0 {
			rep = metrics.Merge(snaps)
			logger.Warn("exporting metrics from a failed run's partial snapshots", "ranks", len(snaps))
		}
	}
	if tl == nil {
		if rts := trace.TakeFailed(); len(rts) > 0 {
			tl = trace.Merge(rts)
			logger.Warn("exporting trace from a failed run's partial buffers", "ranks", len(rts))
		}
	}

	if metricsOut != "" && rep != nil {
		if err := rep.Table(stderr); err != nil {
			return err
		}
		if err := writeTo(metricsOut, stdout, rep.WriteJSON); err != nil {
			return err
		}
		if metricsOut != "-" {
			logger.Info("metrics written", "path", metricsOut)
		}
	}
	if traceOut != "" && tl != nil {
		if err := writeTo(traceOut, stdout, func(w io.Writer) error {
			return trace.WriteChromeJSON(w, tl)
		}); err != nil {
			return err
		}
		if err := trace.Analyze(tl).WriteText(stderr); err != nil {
			return err
		}
		if traceOut != "-" {
			logger.Info("trace written", "path", traceOut,
				"events", tl.NumEvents(), "dropped", tl.Dropped)
		}
	}
	return nil
}

// writeTo writes through f to stdout when path is "-", else to a freshly
// created file at path.
func writeTo(path string, stdout io.Writer, f func(io.Writer) error) error {
	if path == "-" {
		return f(stdout)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
