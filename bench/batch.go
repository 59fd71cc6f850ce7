package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"profam"
	"profam/internal/ledger"
	"profam/internal/quality"
	"profam/internal/report"
	"profam/internal/seq"
)

// setupRepeats is how often set-up is repeated so setup_s is a median.
const setupRepeats = 31

// minIterations is the least number of cold iterations a batch run
// makes, whatever the time budget.
const minIterations = 3

// coldRun is one cold pass of the program over FASTA bytes: parse,
// cluster on p ranks, render the canonical family listing.
type coldRun struct {
	set  *seq.Set
	res  *profam.Result
	text []byte
	interval
}

func runCold(fasta []byte, cfg profam.Config, p int) (coldRun, error) {
	sw := startWatch()
	set, err := seq.ReadFASTA(bytes.NewReader(fasta))
	if err != nil {
		return coldRun{}, fmt.Errorf("parsing corpus: %w", err)
	}
	res, _, err := profam.RunSet(set, p, false, cfg)
	if err != nil {
		return coldRun{}, fmt.Errorf("pipeline: %w", err)
	}
	var out bytes.Buffer
	if err := report.Families(&out, set, res); err != nil {
		return coldRun{}, fmt.Errorf("rendering families: %w", err)
	}
	return coldRun{set: set, res: res, text: out.Bytes(), interval: sw.elapsed()}, nil
}

// familyF1 is the pairwise F1 of the detected families against the
// planted labels, over the sequences both clusterings include.
func familyF1(res *profam.Result, label []int) (float64, error) {
	conf, err := quality.Compare(res.FamilyLabels(), label)
	if err != nil {
		return 0, err
	}
	p, r := conf.Precision(), conf.Sensitivity()
	if p+r == 0 {
		return 0, nil
	}
	return 2 * p * r / (p + r), nil
}

// timedSetup repeats corpus generation and encoding, returning the last
// corpus and every repeat's seconds. A repeat is too short to take host
// steal out of it on its own (the kernel counts steal in 10 ms ticks),
// so each is scaled as the whole loop is.
func timedSetup(sp spec, seed int64) (corpus, []float64, error) {
	var c corpus
	var secs []float64
	sw := startWatch()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if c, err = buildCorpus(sp, seed); err != nil {
			return corpus{}, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	loop := sw.elapsed()
	for i := range secs {
		secs[i] *= loop.wall / loop.raw
	}
	return c, secs, nil
}

// runBatch measures the end-to-end metrics of a batch workload with
// tracing off: cold iterations back to back until the budget is spent.
func runBatch(sp spec, seed int64, budget time.Duration) (*runResult, error) {
	r := newResult(sp, seed, 0)
	c, setup, err := timedSetup(sp, seed)
	if err != nil {
		return nil, err
	}
	r.CorpusSHA, r.Sequences = c.sha, c.set.Len()

	var walls, raws, cpus, allocs []float64
	var digest string
	var last coldRun
	start := time.Now()
	iterations := 0
	for ; iterations < minIterations || time.Since(start)+seconds(median(walls)) <= budget; iterations++ {
		runtime.GC() // every iteration starts from an empty heap, as a fresh process would
		a0 := allocatedMB()
		run, err := runCold(c.fasta, sp.cfg, ranks)
		r.op(err)
		if err != nil {
			continue
		}
		allocs = append(allocs, allocatedMB()-a0)
		walls, raws, cpus = append(walls, run.wall), append(raws, run.raw), append(cpus, run.cpu)
		d := ledger.FamiliesTextDigest(run.text)
		if digest == "" {
			digest = d
		}
		r.check(d == digest, "iteration %d: families digest %s differs from the first iteration's %s", iterations, d, digest)
		last = run
	}
	if len(walls) == 0 {
		return r, errors.New("no iteration succeeded")
	}
	f1 := r.checkF1(last.res, c.label)

	n := len(walls)
	wall := median(walls)
	r.Series["wall_s"], r.Series["raw_wall_s"] = walls, raws
	r.set("wall_s", wall, n)
	r.set("seqs_per_s", float64(c.set.Len())/wall, n)
	r.set("publish_p50_ms", wall*1e3, n)
	r.set("cpu_s", median(cpus), n)
	r.set("alloc_mb", median(allocs), n)
	r.set("peak_rss_mb", readUsage().peakRSSMB, 0)
	r.set("family_f1", f1, 0)
	r.set("setup_s", median(setup), len(setup))
	return r, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
