package profam_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"profam"
	"profam/internal/ledger"
	"profam/internal/metrics"
	"profam/internal/seq"
	"profam/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/work_ledger.json from this run")

// ledgerPath is the checked-in work ledger TestWorkLedger compares with.
const ledgerPath = "testdata/work_ledger.json"

// ledgerShape is one batch workload shape of the benchmark, scaled down
// so each run takes well under a second.
type ledgerShape struct {
	name   string
	params workload.Params
	cfg    func(*profam.Config)
}

func ledgerShapes() []ledgerShape {
	return []ledgerShape{
		{name: "bd_families", params: workload.Params{
			Families: 2, MeanFamilySize: 40, MeanLength: 130, Divergence: 0.10,
			IndelRate: 0.005, ContainedFrac: 0.15, UniformSizes: true, Singletons: 4, Seed: 11,
		}},
		{name: "redundant_short", params: workload.Params{
			Families: 12, MeanFamilySize: 40, MeanLength: 32, Divergence: 0.004,
			IndelRate: 0.001, Subfamilies: 1, ContainedFrac: 0.5, UniformSizes: true, Singletons: 12, Seed: 12,
		}, cfg: func(c *profam.Config) { c.Psi, c.MinComponentSize, c.MinFamilySize = 6, 3, 3 }},
		{name: "bm_domains", params: workload.Params{
			Families: 1, MeanFamilySize: 2, DomainFamilies: 4, DomainSize: 12,
			MeanLength: 130, UniformSizes: true, Seed: 13,
		}, cfg: func(c *profam.Config) { c.Reduction = profam.DomainBased }},
	}
}

// randomArrival is the fragments-heavy corpus in a random arrival order:
// a fragment often arrives before the sequence that contains it, so
// many epochs demote a kept sequence.
func randomArrival() (names, seqs []string) {
	set, _ := workload.Generate(workload.Params{Families: 30, MeanFamilySize: 12, UniformSizes: true, MeanLength: 130, Seed: 3})
	names, seqs = setStrings(set)
	rand.New(rand.NewSource(1)).Shuffle(len(seqs), func(i, j int) {
		names[i], names[j] = names[j], names[i]
		seqs[i], seqs[j] = seqs[j], seqs[i]
	})
	return names, seqs
}

// randomArrivalWaves cuts randomArrival into a 120-sequence first epoch
// and 30-sequence waves.
func randomArrivalWaves() [][2][]string {
	names, seqs := randomArrival()
	waves := [][2][]string{{names[:120], seqs[:120]}}
	return append(waves, splitWaves(names[120:], seqs[120:], (len(seqs)-120+29)/30)...)
}

// ledgerCounters are the work counters the ledger records, by name
// without labels: each is kept under every label set the run reports.
var ledgerCounters = map[string]bool{
	"pace_pairs_generated": true, "pace_pairs_duplicate": true, "pace_pairs_closure": true,
	"pace_pairs_worker_skipped": true, "pace_pairs_aligned": true, "pace_pairs_positive": true,
	"pace_align_cells": true, "pace_index_chars": true,
	"bgg_pairs_aligned": true, "bgg_pairs_reused": true, "bgg_align_cells": true,
	"dsd_work_ops":  true,
	"mpi_msgs_sent": true, "mpi_bytes_sent": true,
}

// ledgerLeg is one run's entry: its work counters and the digest of its
// canonical family listing.
type ledgerLeg struct {
	Counters       map[string]int64 `json:"counters"`
	FamiliesDigest string           `json:"families_digest"`
}

// newLedgerLeg is the entry of res, a run over set.
func newLedgerLeg(t *testing.T, set *seq.Set, res *profam.Result) ledgerLeg {
	t.Helper()
	leg := ledgerLeg{Counters: map[string]int64{}}
	for name, v := range res.Metrics.Canonical().Counters {
		if base, _, _ := strings.Cut(name, "{"); ledgerCounters[base] {
			leg.Counters[name] = v
		}
	}
	var err error
	if leg.FamiliesDigest, err = ledger.FamiliesDigest(set, res); err != nil {
		t.Fatal(err)
	}
	return leg
}

// checkLedgerGates fails a leg whose work lost what the design relies on,
// whatever the pinned numbers say. No leg may build a CCD index: CCD
// takes the kept pairs of RR's enumeration, so a run enumerates once. At
// p ≥ 2 the workers' replicas must skip some dispatched task, since the
// master's filter lags the outcomes in flight. At p = 8 B_d must reuse
// some of CCD's counts, since CCD aligns many pairs inside components.
func checkLedgerGates(t *testing.T, leg string, p int, reduction profam.Reduction, m *metrics.Report) {
	t.Helper()
	series := make([]string, 0, len(m.Counters)+len(m.Gauges))
	for name := range m.Counters {
		series = append(series, name)
	}
	for name := range m.Gauges {
		series = append(series, name)
	}
	for _, name := range series {
		if strings.HasPrefix(name, "pace_index_") && strings.HasSuffix(name, "{phase=ccd}") {
			t.Errorf("%s: %s present: CCD built its own index, so the run enumerated pairs twice", leg, name)
		}
	}
	if p >= 2 {
		var skipped int64
		for name, v := range m.Counters {
			if strings.HasPrefix(name, "pace_pairs_worker_skipped{") {
				skipped += v
			}
		}
		if skipped == 0 {
			t.Errorf("%s: no worker's replica skipped a dispatched task", leg)
		}
	}
	if p == 8 && reduction == profam.GlobalSimilarity {
		if m.CounterValue("bgg_pairs_reused{reduction=global-similarity}") == 0 {
			t.Errorf("%s: B_d reused no CCD counts: it aligned pairs whose verdicts CCD held", leg)
		}
	}
}

// TestWorkLedger pins every run's work: the canonical counters of the
// three batch workload shapes at p = 1 in process and at simulated p = 2
// and 8, one thread per rank, default cost model, and of every epoch of
// the random-arrival session at p = 1 in process. Work counters are
// deterministic functions of (corpus, config), so any change here is a
// change in the work the program does; a change that claims none must
// leave the file as it is. Rewrite it with `go test -run TestWorkLedger
// -update` and say which numbers moved and why. Every leg also passes
// checkLedgerGates, -update or not.
func TestWorkLedger(t *testing.T) {
	got := map[string]ledgerLeg{}
	for _, sh := range ledgerShapes() {
		set, _ := workload.Generate(sh.params)
		cfg := profam.Config{ThreadsPerRank: 1}
		if sh.cfg != nil {
			sh.cfg(&cfg)
		}
		for _, p := range []int{1, 2, 8} {
			res, _, err := profam.RunSet(set, p, p > 1, cfg)
			if err != nil {
				t.Fatalf("%s p=%d: %v", sh.name, p, err)
			}
			leg := fmt.Sprintf("%s/p=%d", sh.name, p)
			got[leg] = newLedgerLeg(t, set, res)
			checkLedgerGates(t, leg, p, cfg.Reduction, res.Metrics)
		}
	}
	st := profam.NewEpochState()
	for k, w := range randomArrivalWaves() {
		res, next, err := profam.RunEpoch(context.Background(), st, w[0], w[1], 1, profam.Config{ThreadsPerRank: 1})
		if err != nil {
			t.Fatalf("random_arrival epoch %d: %v", k+1, err)
		}
		st = next
		leg := fmt.Sprintf("random_arrival/p=1/epoch=%d", k+1)
		got[leg] = newLedgerLeg(t, st.Set(), res)
		checkLedgerGates(t, leg, 1, profam.GlobalSimilarity, res.Metrics)
	}

	if *updateLedger {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want map[string]ledgerLeg
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	for _, leg := range sortedKeys(want, got) {
		w, g := want[leg], got[leg]
		if w.FamiliesDigest != g.FamiliesDigest {
			t.Errorf("%s: families digest %q, ledger has %q", leg, g.FamiliesDigest, w.FamiliesDigest)
		}
		for _, name := range sortedKeys(w.Counters, g.Counters) {
			wv, inW := w.Counters[name]
			gv, inG := g.Counters[name]
			if wv != gv || inW != inG {
				t.Errorf("%s: %s = %d (present %v), ledger has %d (present %v)", leg, name, gv, inG, wv, inW)
			}
		}
	}
}

// sortedKeys is the sorted union of the maps' keys.
func sortedKeys[V any](ms ...map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
