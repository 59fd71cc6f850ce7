// Command benchjson runs the hybrid-parallelism benchmarks
// (batch-alignment kernel and full pipeline, at 1..NumCPU threads per
// rank, plus the per-layer kernels) through testing.Benchmark and writes
// the ns/op, B/op and allocs/op results to a JSON file, giving future
// changes a machine-readable perf trajectory to compare against.
//
// With -compare it acts as a regression gate instead: results are
// checked against the baseline file and the exit status is non-zero if
// any kernel got more than -tolerance slower. A calibration kernel is
// timed twice first; when the two runs disagree by more than half the
// tolerance the host is considered too noisy to judge and the
// comparison is skipped (exit 0), so shared CI runners don't produce
// false failures.
//
// The run is bounded by -timeout and interruptible with SIGINT/SIGTERM:
// no new benchmark starts once the deadline passes or a signal arrives,
// and a watchdog terminates the process if a benchmark itself wedges.
//
// Example:
//
//	benchjson -out BENCH_results.json
//	benchjson -compare BENCH_results.json -tolerance 0.2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"testing"
	"time"

	"profam"
	"profam/internal/experiments"
)

// fileFormat is the BENCH_results.json schema.
type fileFormat struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_maxprocs"`
	// CellsEliminatedRatio is full-matrix DP cells / cascade DP cells on
	// the AlignCascade kernel's pair batch (work checksum, not timing).
	CellsEliminatedRatio float64            `json:"cells_eliminated_ratio,omitempty"`
	Benchmarks           map[string]float64 `json:"benchmarks_ns_per_op"`
	// AllocsPerOp and BytesPerOp are the heap objects and bytes one
	// iteration of each kernel allocates (recorded, not gated).
	AllocsPerOp map[string]int64 `json:"benchmarks_allocs_per_op,omitempty"`
	BytesPerOp  map[string]int64 `json:"benchmarks_bytes_per_op,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	testing.Init() // register the test.* flags testing.Benchmark consults
	out := flag.String("out", "BENCH_results.json", "output JSON file")
	benchtime := flag.Duration("benchtime", time.Second, "minimum run time per benchmark")
	compare := flag.String("compare", "", "baseline JSON file to gate against; exits 1 on any regression beyond -tolerance")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional slowdown per kernel in -compare mode")
	timeout := flag.Duration("timeout", 15*time.Minute, "abort the whole run after this long")
	flag.Parse()

	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	go func() {
		// Watchdog: testing.Benchmark cannot be cancelled mid-run, so
		// once the context ends a wedged benchmark would hang CI forever.
		// Give the in-flight benchmark a grace period, then bail hard.
		<-ctx.Done()
		time.Sleep(30 * time.Second)
		log.Print("watchdog: benchmark still running after cancellation; terminating")
		os.Exit(2)
	}()

	results := map[string]float64{}
	allocs, allocBytes := map[string]int64{}, map[string]int64{}
	record := func(name string, fn func(b *testing.B)) {
		if ctx.Err() != nil {
			return
		}
		r := testing.Benchmark(fn)
		results[name] = float64(r.NsPerOp())
		allocs[name], allocBytes[name] = r.AllocsPerOp(), r.AllocedBytesPerOp()
		log.Printf("%-40s %12d ns/op %12d B/op %10d allocs/op  (%d iters)",
			name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
	}

	if runtime.NumCPU() == 1 {
		log.Print("WARNING: num_cpu=1 — thread-ladder kernels cannot speed up on this host; do not read flat threads=N curves as a missing parallel speedup")
	}

	alignSet, _ := experiments.SetOfSize(120, 31)
	pairs := experiments.BenchPairs(alignSet, 2048)
	seedPairs, err := experiments.BenchSeedPairs(alignSet, 6, 2048)
	if err != nil {
		log.Fatal(err)
	}
	pipeSet, _ := experiments.SetOfSize(300, 47)

	// The cells-eliminated ratio is a work checksum, identical for every
	// thread count; one serial kernel run pins it.
	cascadeCells, fullCells := experiments.AlignCascadeKernel(alignSet, seedPairs, 1)
	var cellsRatio float64
	if cascadeCells > 0 {
		cellsRatio = float64(fullCells) / float64(cascadeCells)
	}
	log.Printf("cascade cells: %d vs %d full-matrix (%.1fx eliminated)", cascadeCells, fullCells, cellsRatio)

	calibrate := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.AlignBatchKernel(alignSet, pairs, 1)
			}
		})
		return float64(r.NsPerOp())
	}

	var noise float64
	if *compare != "" {
		// Measure host noise before anything else: the same serial kernel
		// twice, back to back.
		c1, c2 := calibrate(), calibrate()
		noise = (c1 - c2) / c1
		if noise < 0 {
			noise = -noise
		}
		log.Printf("calibration: %.0f vs %.0f ns/op (%.1f%% spread)", c1, c2, 100*noise)
	}

	for _, th := range experiments.ThreadCounts() {
		th := th
		record(fmt.Sprintf("AlignBatchParallel/threads=%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.AlignBatchKernel(alignSet, pairs, th)
			}
		})
		record(fmt.Sprintf("AlignCascade/threads=%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.AlignCascadeKernel(alignSet, seedPairs, th)
			}
		})
		record(fmt.Sprintf("PipelineThreads/threads=%d", th), func(b *testing.B) {
			cfg := experiments.PipelineConfig()
			cfg.ThreadsPerRank = th
			for i := 0; i < b.N; i++ {
				if _, _, err := profam.RunSet(pipeSet, 2, false, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The pair-generation kernel isolates the candidate-pair index +
	// enumeration hot path (no alignment, no transport) over the pipeline
	// kernels' corpus and ψ.
	record("PairGen/threads=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.PairGenKernel(pipeSet, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The phase-4 kernels: the Shingle detector alone on one B_d and one
	// B_m component graph (adjacency lists mostly distinct vs mostly
	// shared).
	shingleBd, shingleBm, err := experiments.ShingleBenchGraphs()
	if err != nil {
		log.Fatal(err)
	}
	record("ShingleDetect/bd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.ShingleDetectKernel(shingleBd)
		}
	})
	record("ShingleDetect/bm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.ShingleDetectKernel(shingleBm)
		}
	})
	// PipelineTraced mirrors PipelineThreads/threads=1 with event tracing
	// on.
	record("PipelineTraced/threads=1", func(b *testing.B) {
		cfg := experiments.PipelineConfig()
		cfg.ThreadsPerRank = 1
		cfg.TraceCapacity = 1 << 15
		for i := 0; i < b.N; i++ {
			if _, _, err := profam.RunSet(pipeSet, 2, false, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The service kernel: status requests through the instrumented
	// handler of one live server.
	statusSet, _ := experiments.SetOfSize(60, 19)
	statusH, statusShutdown, err := experiments.StatusHandler(statusSet)
	if err != nil {
		log.Fatal(err)
	}
	record("ServiceStatusInstrumented", func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
		for i := 0; i < b.N; i++ {
			rr := httptest.NewRecorder()
			statusH.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				b.Fatalf("status = %d", rr.Code)
			}
		}
	})
	statusShutdown()

	// The TCP kernels each grab a fresh port block per iteration so
	// lingering TIME_WAIT sockets from the previous mesh can't collide.
	// The window sits below the kernel's ephemeral port range
	// (net.ipv4.ip_local_port_range, 32768+ by default): a prior mesh's
	// *outbound* sockets pick ephemeral source ports, and with an
	// overlapping window one of them can own the exact port the next
	// mesh wants to Listen on, failing the bind and wedging the bench.
	// The window recycles after 45 blocks; listeners rebind closed
	// ports safely (SO_REUSEADDR).
	tcpPort := 23700
	nextTCPPorts := func() int {
		p := tcpPort
		tcpPort += 16
		if tcpPort >= 24420 {
			tcpPort = 23700
		}
		return p
	}
	record("PipelineTCP", func(b *testing.B) {
		cfg := experiments.PipelineConfig()
		cfg.ThreadsPerRank = 1
		for i := 0; i < b.N; i++ {
			if err := experiments.PipelineTCP(pipeSet, cfg, nextTCPPorts()); err != nil {
				b.Fatal(err)
			}
		}
	})
	roundBatches := experiments.MasterRoundBatches(64, 256, 9)
	record("MasterRoundLatency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := experiments.MasterRoundLatency(roundBatches, nextTCPPorts()); err != nil {
				b.Fatal(err)
			}
		}
	})

	if err := ctx.Err(); err != nil {
		log.Fatalf("run aborted: %v (%d benchmarks completed)", err, len(results))
	}

	payload := fileFormat{
		CellsEliminatedRatio: cellsRatio,
		Benchmarks:           results,
		AllocsPerOp:          allocs,
		BytesPerOp:           allocBytes,
	}

	if *compare != "" {
		os.Exit(compareBaseline(*compare, payload, *tolerance, noise, explicitOut(), *out))
	}

	writeResults(*out, payload)
}

// explicitOut reports whether -out was set on the command line (as
// opposed to defaulted), so -compare mode doesn't clobber the baseline
// unless asked.
func explicitOut() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			set = true
		}
	})
	return set
}

func writeResults(path string, payload fileFormat) {
	payload.Date = time.Now().UTC().Format(time.RFC3339)
	payload.GoVersion = runtime.Version()
	payload.NumCPU = runtime.NumCPU()
	payload.GoMaxProcs = runtime.GOMAXPROCS(0)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// compareBaseline checks the fresh results against the baseline file and
// returns the process exit code: 0 when every shared kernel is within
// tolerance (or the host is too noisy to judge), 1 on regression.
func compareBaseline(path string, payload fileFormat, tolerance, noise float64, writeOut bool, outPath string) int {
	results := payload.Benchmarks
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Print(err)
		return 1
	}
	var base fileFormat
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Printf("%s: %v", path, err)
		return 1
	}
	if noise > tolerance/2 {
		log.Printf("host too noisy (%.1f%% calibration spread > %.1f%% threshold); skipping comparison", 100*noise, 100*tolerance/2)
		return 0
	}
	regressed := 0
	for name, old := range base.Benchmarks {
		now, ok := results[name]
		if !ok {
			log.Printf("%-40s missing from this run", name)
			continue
		}
		ratio := now/old - 1
		status := "ok"
		if ratio > tolerance {
			status = "REGRESSED"
			regressed++
		}
		log.Printf("%-40s %12.0f -> %12.0f ns/op  (%+.1f%%)  %s", name, old, now, 100*ratio, status)
	}
	if writeOut {
		writeResults(outPath, payload)
	}
	if regressed > 0 {
		log.Printf("%d kernel(s) regressed beyond %.0f%%", regressed, 100*tolerance)
		return 1
	}
	log.Printf("all %d baseline kernels within %.0f%%", len(base.Benchmarks), 100*tolerance)
	return 0
}
