package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"profam/internal/ledger"
)

// measureLayers produces the per-layer numbers for one corpus:
//
//   - one staged pass on a single rank: the plain serial baseline, the
//     only place allocations can be charged to a layer, and the p=1 side
//     of the families-identical-at-any-p check;
//   - each pair backend, the align predicates and the transport on
//     their own;
//   - rounds of {untraced RunSet, staged with spans, staged without}
//     until the budget is spent, at least minRounds of them.
//
// Every staged pass must render the same family listing as RunSet. The
// last RunSet pass is returned for further checks.
func measureLayers(r *runResult, rec *recorder, sp spec, c corpus, budget time.Duration, minRounds int) (coldRun, error) {
	start := time.Now()
	lc := layersOf(sp.cfg)
	v := r.Values

	serial, err := runStaged(rec, 0, c.fasta, lc, 1)
	r.op(err)
	if err != nil {
		return coldRun{}, err
	}
	v["profam.serial_wall_s"] = serial.wall
	for _, layer := range []string{"pace", "bipartite", "shingle"} {
		v[layer+".alloc_mb"] = serial.alloc[layer]
	}
	v["seq.residues"] = float64(serial.residues)
	v["report.bytes_out"] = float64(len(serial.text))

	trees, err := measureBackends(rec, c.set, lc.pace.Psi, v)
	r.op(err)
	if err != nil {
		return coldRun{}, err
	}
	measureAlign(c.set, trees, lc, v)
	rtt, err := measurePingPong()
	r.op(err)
	v["mpi.inproc_rtt_us"] = rtt

	want := ledger.FamiliesTextDigest(serial.text)
	sameFamilies := func(what string, text []byte) {
		got := ledger.FamiliesTextDigest(text)
		r.check(got == want, "%s: families digest %s differs from the single-rank staged run's %s", what, got, want)
	}
	samples := map[string][]float64{} // metric → one value per round
	add := func(name string, x float64) { samples[name] = append(samples[name], x) }
	var roundSecs []float64
	var lastCold coldRun
	for round := 1; round <= minRounds || time.Since(start)+seconds(median(roundSecs)) <= budget; round++ {
		t0 := time.Now()
		cold, err := runCold(c.fasta, sp.cfg, ranks)
		r.op(err)
		if err != nil {
			return coldRun{}, err
		}
		sameFamilies(fmt.Sprintf("round %d RunSet on %d ranks", round, ranks), cold.text)
		lastCold = cold
		add("profam.untraced_wall_s", cold.raw) // raw, like the spans it is compared with
		add("profam.reported_bgg_s", cold.res.BGGTime)
		add("profam.reported_dsd_s", cold.res.DSDTime)
		for name, n := range cold.res.Metrics.Counters {
			switch {
			case strings.HasPrefix(name, "mpi_msgs_sent"):
				add("mpi.msgs", float64(n))
			case strings.HasPrefix(name, "mpi_bytes_sent"):
				add("mpi.bytes", float64(n))
			}
		}

		on, err := runStaged(rec, round, c.fasta, lc, ranks)
		r.op(err)
		if err != nil {
			return coldRun{}, err
		}
		sameFamilies(fmt.Sprintf("round %d staged run on %d ranks", round, ranks), on.text)
		add("staged_on_wall", on.wall)
		for name, x := range map[string]int64{
			"pace.rr_pairs_generated": on.rr.PairsGenerated, "pace.rr_pairs_aligned": on.rr.PairsAligned,
			"pace.rr_pairs_positive": on.rr.PairsPositive, "pace.rr_cells": on.rr.Cells,
			"pace.ccd_pairs_generated": on.ccd.PairsGenerated, "pace.ccd_pairs_closure": on.ccd.PairsClosure,
			"pace.ccd_pairs_aligned": on.ccd.PairsAligned, "pace.ccd_pairs_positive": on.ccd.PairsPositive,
			"pace.ccd_cells":     on.ccd.Cells,
			"bipartite.bm_words": on.build.Words, "bipartite.edges": int64(on.edges),
			"bipartite.bd_pairs_aligned": on.build.PairsAligned, "bipartite.bd_cells": on.build.Cells,
			"shingle.work_ops": on.shingle.WorkOps, "shingle.shingles_pass1": int64(on.shingle.ShinglesPass1),
			"shingle.shingles_pass2": int64(on.shingle.ShinglesPass2), "shingle.candidates": int64(on.shingle.Candidates),
			"shingle.reported": int64(on.shingle.Reported),
		} {
			add(name, float64(x))
		}

		off, err := runStaged(nil, round, c.fasta, lc, ranks)
		r.op(err)
		if err != nil {
			return coldRun{}, err
		}
		sameFamilies(fmt.Sprintf("round %d staged run without spans", round), off.text)
		add("staged_off_wall", off.wall)
		roundSecs = append(roundSecs, time.Since(t0).Seconds())
	}

	// Layer times come from the spans: per round, the layer's self time
	// on its slowest rank.
	self := selfTimes(rec.spans)
	rounds := len(roundSecs)
	for metric, name := range map[string]string{
		"seq.parse_s": spanParse, "pace.rr_s": spanRR, "pace.ccd_s": spanCCD,
		"bipartite.bd_build_s": spanBuildBd, "bipartite.bm_build_s": spanBuildBm,
		"shingle.detect_s": spanDetect, "report.write_s": spanReport,
	} {
		for round := 1; round <= rounds; round++ {
			add(metric, layerSeconds(rec.spans, self, round, name))
		}
	}
	// The staged sum is the part of an iteration some layer span covers.
	for i, s := range rec.spans {
		if s.Name == spanIteration && s.Iter >= 1 {
			add("profam.staged_sum_s", s.seconds()-self[i])
		}
	}
	for name, xs := range samples {
		if !strings.HasPrefix(name, "staged_") {
			r.set(name, median(xs), len(xs))
		}
	}
	v["profam.unattributed_share"] = 1 - v["profam.staged_sum_s"]/v["profam.untraced_wall_s"]
	v["profam.trace_overhead_ratio"] = median(samples["staged_on_wall"]) / median(samples["staged_off_wall"])
	if a := v["pace.ccd_pairs_aligned"]; a > 0 {
		v["pace.ccd_useful_ratio"] = v["pace.ccd_pairs_positive"] / a
	}
	if a := serial.ccd.PairsAligned; a > 0 {
		v["pace.ccd_aligned_p2_over_p1"] = v["pace.ccd_pairs_aligned"] / float64(a)
	}

	return lastCold, nil
}

// runTracedBatch is the traced run of a batch workload.
func runTracedBatch(sp spec, seed int64, budget time.Duration, outDir string) (*runResult, error) {
	r := newResult(sp, seed, 1)
	c, err := buildCorpus(sp, seed)
	if err != nil {
		return nil, err
	}
	r.CorpusSHA, r.Sequences = c.sha, c.set.Len()
	rec := newRecorder()
	cold, err := measureLayers(r, rec, sp, c, budget, 2)
	if err != nil {
		return r, err
	}
	r.checkF1(cold.res, c.label)
	return r, finishTrace(r, rec, outDir)
}

// finishTrace writes the spans kept in memory during the run.
func finishTrace(r *runResult, rec *recorder, outDir string) error {
	path := filepath.Join(outDir, "trace_"+r.Workload+".json")
	if err := writeChromeJSON(path, rec.spans); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
