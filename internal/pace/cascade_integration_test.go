package pace_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"profam/internal/bipartite"
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/seq"
	"profam/internal/workload"
)

// integrationSet is the corpus of the root package's integration tests.
func integrationSet() *seq.Set {
	set, _ := workload.Generate(workload.Params{
		Families: 5, MeanFamilySize: 12, MeanLength: 110,
		Divergence: 0.09, IndelRate: 0.004, Subfamilies: 2,
		ContainedFrac: 0.2, Singletons: 5, Seed: 2024,
	})
	return set
}

// stripAlignCost removes the DP-cost series that legitimately differ
// between the cascade and the exact full-matrix arm: the cascade
// computes fewer cells (pace_align_cells) and exports its own stage
// counters (pace_cascade_*). Everything else — pair counts, verdicts,
// batch shapes, queue depths — must be byte-identical.
func stripAlignCost(rep *metrics.Report) {
	drop := func(m map[string]int64) {
		for k := range m {
			if strings.HasPrefix(k, "pace_align_cells") ||
				strings.HasPrefix(k, "pace_cascade_") {
				delete(m, k)
			}
		}
	}
	drop(rep.Counters)
	for i := range rep.Ranks {
		drop(rep.Ranks[i].Counters)
	}
}

// phaseOutputs is everything phases 1–3 hand to dense-subgraph
// detection, rendered for byte comparison, plus the run's cost.
type phaseOutputs struct {
	keep, components string
	// edges lists, per component, the aligned-pair count and the B_d
	// adjacency. Families are a pure function of these and the Shingle
	// parameters, so edge identity is family identity.
	edges    string
	metrics  string // canonical registry report of RR + CCD, DP-cost series stripped
	cells    int64  // RR + CCD DP cells
	makespan float64
}

// runPhases executes RR, CCD and B_d construction on p simulated ranks
// with the integration tests' thresholds, with RR on the production
// containment cascade or — with exact — the full-matrix reference arm,
// which only tests of this package reach: pace RR + CCD, then
// bipartite.BuildBd per component.
func runPhases(t *testing.T, set *seq.Set, p, threads int, exact bool) phaseOutputs {
	t.Helper()
	var out phaseOutputs
	span, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
		reg := metrics.New(c.Rank(), c.Time)
		c.AttachMetrics(reg)
		pcfg := pace.Config{Psi: 6, Threads: threads, Metrics: reg}
		rrFn := pace.RedundancyRemoval
		if exact {
			rrFn = pace.ExactRedundancyRemoval
		}
		keep, rr, err := rrFn(c, set, pcfg)
		if err != nil {
			panic(err)
		}
		comp, cc, err := pace.ConnectedComponents(c, set, keep, pcfg)
		if err != nil {
			panic(err)
		}
		snaps := c.Gather(0, reg.Snapshot())
		if c.Rank() != 0 {
			return
		}
		out.keep = fmt.Sprint(keep)
		out.cells = rr.Cells + cc.Cells
		comps := pace.ComponentsBySize(comp, 3)
		out.components = fmt.Sprint(comps)
		bcfg := bipartite.Config{Psi: 6}
		var edges strings.Builder
		for _, members := range comps {
			g, st, err := bipartite.BuildBd(set, members, bcfg)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&edges, "%d %v\n", st.PairsAligned, g.Adj)
		}
		out.edges = edges.String()
		merged := make([]metrics.Snapshot, len(snaps))
		for i, s := range snaps {
			merged[i] = s.(metrics.Snapshot)
		}
		rep := metrics.Merge(merged).Canonical()
		stripAlignCost(rep)
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			panic(err)
		}
		out.metrics = buf.String()
	})
	if err != nil {
		t.Fatal(err)
	}
	out.makespan = span
	return out
}

// requireSameVerdicts asserts the arm-independent part of two runs: the
// keep mask, the components and every B_d edge.
func requireSameVerdicts(t *testing.T, got, ref phaseOutputs, gotName, refName string) {
	t.Helper()
	if got.keep != ref.keep {
		t.Fatalf("%s changed the redundancy-removal keep mask vs %s", gotName, refName)
	}
	if got.components != ref.components {
		t.Fatalf("%s changed the connected components vs %s", gotName, refName)
	}
	if got.edges != ref.edges {
		t.Fatalf("%s changed the B_d edges vs %s", gotName, refName)
	}
}

// servicePinned reports whether the master's service order on p simulated
// ranks is a function of message content alone: serial at p=1, a single
// worker's FIFO at p=2. At p>2 the order follows virtual completion
// times, which differ between arms that charge different DP work, so
// only results — not work counters — are comparable there.
func servicePinned(p int) bool { return p <= 2 }

// TestCascadeDeterminism: with the cascade on (production) and off (the
// full-matrix arm), phases 1–3 must produce byte-identical keep masks,
// components and B_d edges at 1, 2 and 4 simulated ranks and 1 and 4
// threads per rank, and — where the service order is pinned —
// byte-identical canonical metrics modulo the DP-cost series above. This
// is the cascade's contract: it only changes how much of each DP matrix
// is computed, never a verdict.
func TestCascadeDeterminism(t *testing.T) {
	set := integrationSet()
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			for _, threads := range []int{1, 4} {
				t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
					cascade := runPhases(t, set, p, threads, false)
					exact := runPhases(t, set, p, threads, true)
					requireSameVerdicts(t, cascade, exact, "cascade", "exact")
					if servicePinned(p) && cascade.metrics != exact.metrics {
						t.Errorf("canonical metrics differ between cascade and exact:\ncascade:\n%s\nexact:\n%s",
							cascade.metrics, exact.metrics)
					}
				})
			}
		})
	}
}

// TestCascadeCellsReduction: on the integration corpus the cascade must
// eliminate at least 3× of the RR+CCD alignment DP cells and improve the
// virtual makespan.
func TestCascadeCellsReduction(t *testing.T) {
	set := integrationSet()
	cascade := runPhases(t, set, 1, 1, false)
	exact := runPhases(t, set, 1, 1, true)
	if cascade.cells == 0 || exact.cells == 0 {
		t.Fatalf("no cells recorded: cascade=%d exact=%d", cascade.cells, exact.cells)
	}
	ratio := float64(exact.cells) / float64(cascade.cells)
	t.Logf("pace_align_cells: exact=%d cascade=%d (%.1fx reduction); makespan exact=%.3fs cascade=%.3fs",
		exact.cells, cascade.cells, ratio, exact.makespan, cascade.makespan)
	if ratio < 3 {
		t.Errorf("cascade eliminates only %.2fx of DP cells, want >= 3x", ratio)
	}
	if cascade.makespan >= exact.makespan {
		t.Errorf("virtual makespan did not improve: cascade %.4fs vs exact %.4fs", cascade.makespan, exact.makespan)
	}
}
