// Command bench is the repository's benchmark: cold FASTA → families on
// three corpora that each load a different layer, plus a profamd
// ingest/read session, measured end to end with tracing off and layer by
// layer in a separate staged, traced run. See README.md in this
// directory for what each number means and which change should move it.
//
//	go run ./bench -seed N                      every workload, both kinds of run, one report
//	go run ./bench -seed N -workload W          one workload, both kinds of run
//	go run ./bench -seed N -workload W -trace 1 one run in this process, result on the last line
//	go run ./bench -seed N -selfcheck           two end-to-end sets, compared against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all of them)")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		secs      = flag.Int("seconds", 20, "seconds one run measures for")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: staged traced run, per-layer metrics; -1: both, each in a child process")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and fail if the two disagree by more than the bounds in BENCHMARK.json")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for traces, per-run results and scratch files")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, sp := range specs() {
			names = append(names, sp.name)
		}
	}
	for _, n := range names {
		if _, ok := specByName(n); !ok {
			fatal(fmt.Errorf("unknown workload %q", n))
		}
	}
	budget := time.Duration(*secs) * time.Second

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(names, *seed, *secs, *outDir))
	case *workload != "" && (*trace == 0 || *trace == 1):
		os.Exit(runOne(*workload, *seed, budget, *trace, *outDir))
	default:
		kinds := []int{0, 1}
		if *trace == 0 || *trace == 1 {
			kinds = []int{*trace}
		}
		results, ok := runSet(names, *seed, *secs, kinds, *outDir)
		printReport(os.Stdout, results)
		if err := writeJSON(filepath.Join(*outDir, "results.json"), results); err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runOne performs a single run in this process. The last line it writes
// to standard output is the result object of the driver contract.
func runOne(name string, seed int64, budget time.Duration, trace int, outDir string) int {
	sp, _ := specByName(name)
	var r *runResult
	var err error
	steal0, total0, _ := hostCPU()
	switch {
	case sp.service && trace == 1:
		r, err = runTracedService(sp, seed, budget, outDir)
	case sp.service:
		r, err = runService(sp, seed, budget, outDir)
	case trace == 1:
		r, err = runTracedBatch(sp, seed, budget, outDir)
	default:
		r, err = runBatch(sp, seed, budget)
	}
	if r == nil {
		fatal(err)
	}
	if err != nil {
		r.Failures = append(r.Failures, "run stopped early: "+err.Error())
	}
	r.Correct = err == nil && r.Failed == 0
	if steal1, total1, ok := hostCPU(); ok && total1 > total0 {
		r.Env.StealShare = (steal1 - steal0) / (total1 - total0)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", name, f)
	}
	if r.Env.Undersized {
		fmt.Fprintf(os.Stderr, "bench: this host has %d usable cores for %d ranks: the times below measure the scheduler, not the program\n",
			min(r.Env.NumCPU, r.Env.GOMAXPROCS), ranks)
	}
	if err := writeJSON(r.sidePath(outDir), r); err != nil {
		fatal(err)
	}
	line, lerr := r.contractLine()
	if lerr != nil {
		fatal(lerr) // no result line: the run did not get far enough to have one
	}
	fmt.Printf("%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

// runSet runs each named workload in a fresh child process per kind of
// run, one after the other with nothing beside them, and collects the
// results. ok is false if any run failed or was incorrect.
func runSet(names []string, seed int64, secs int, kinds []int, outDir string) (results []*runResult, ok bool) {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ok = true
	for _, name := range names {
		for _, kind := range kinds {
			fmt.Fprintf(os.Stderr, "bench: %s, trace %d, seed %d, %d s ...\n", name, kind, seed, secs)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(kind), "-out", outDir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run() // waits for the child to end
			r := &runResult{Workload: name, Seed: seed, Trace: kind}
			if data, err := os.ReadFile(r.sidePath(outDir)); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %d left no result: %v (%v)\n", name, kind, err, runErr)
				ok = false
				continue
			} else if err := json.Unmarshal(data, r); err != nil {
				fatal(fmt.Errorf("%s: %w", r.sidePath(outDir), err))
			}
			if runErr != nil || !r.Correct {
				ok = false
			}
			results = append(results, r)
		}
	}
	return results, ok
}

// isTime reports whether a unit is a wall-clock quantity, which means
// nothing on a host with fewer cores than ranks.
func isTime(unit string) bool {
	switch unit {
	case "s", "ms", "us", "ns", "1/s":
		return true
	}
	return false
}

func printReport(w *os.File, results []*runResult) {
	for _, r := range results {
		kind := "end to end, tracing off"
		if r.Trace == 1 {
			kind = "per layer, staged traced run"
		}
		fmt.Fprintf(w, "\n== %s (%s) ==\n", r.Workload, kind)
		fmt.Fprintf(w, "seed %d, %d sequences, corpus sha256 %s\n", r.Seed, r.Sequences, r.CorpusSHA)
		e := r.Env
		fmt.Fprintf(w, "commit %s, %s, nproc %d, GOMAXPROCS %d, %d ranks x 1 thread, host steal %.1f %%\n",
			e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Ranks, 100*e.StealShare)
		fmt.Fprintf(w, "correct %v, attempted %d, failed %d, failed_share %.4f\n", r.Correct, r.Attempted, r.Failed,
			float64(r.Failed)/math.Max(1, float64(r.Attempted)))
		if e.Undersized {
			fmt.Fprintf(w, "host has fewer cores than ranks: wall-clock metrics omitted, counts only\n")
		}
		for _, d := range r.defs() {
			if e.Undersized && isTime(d.unit) {
				continue
			}
			v := r.Values[d.name]
			line := fmt.Sprintf("  %-34s %14.6g %-6s", d.name, v, d.unit)
			if n := r.Samples[d.name]; n > 0 {
				line += fmt.Sprintf(" n=%d", n)
			}
			// A layer's seconds are easier to read as a share of a cold
			// run: the untraced RunSet passes of the same traced run, made
			// under the same conditions and, like the spans, raw wall clock.
			if wall := r.Values["profam.untraced_wall_s"]; r.Trace == 1 && d.unit == "s" && wall > 0 {
				line += fmt.Sprintf("  (%.1f %% of untraced wall)", 100*v/wall)
			}
			fmt.Fprintln(w, line)
		}
		for _, name := range []string{"wall_s", "publish_s"} {
			if xs := r.Series[name]; len(xs) >= 2 && !e.Undersized {
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(w, "  %s over its %d samples: quartiles %.4g / %.4g / %.4g\n", name, len(xs), q1, q2, q3)
			}
		}
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// runSelfcheck runs two end-to-end sets of the same binary back to back
// and holds the difference of every metric on every workload against
// its bound: the benchmark must agree with itself before it can judge
// a change.
func runSelfcheck(names []string, seed int64, secs int, outDir string) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("the self-check takes its bounds from BENCHMARK.json in the current directory: %w", err))
	}
	first, ok1 := runSet(names, seed, secs, []int{0}, outDir)
	second, ok2 := runSet(names, seed, secs, []int{0}, outDir)
	code := 0
	if !ok1 || !ok2 || len(first) != len(second) {
		fmt.Println("a run failed or was incorrect")
		code = 1
	}
	fmt.Printf("%-16s %-16s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i := range min(len(first), len(second)) {
		a, b := first[i], second[i]
		for _, m := range bf.EndToEnd {
			worse := relWorse(a.Values[m.Name], b.Values[m.Name], m.Better == "lower")
			verdict := ""
			if math.Abs(worse) > m.Bound {
				verdict, code = "  BEYOND BOUND", 1
			}
			fmt.Printf("%-16s %-16s %12.6g %12.6g %+8.1f%% %6.0f%%%s\n", a.Workload, m.Name,
				a.Values[m.Name], b.Values[m.Name], 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
