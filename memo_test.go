package profam_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"profam"
	"profam/internal/align"
	"profam/internal/bipartite"
	"profam/internal/esa"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/seq"
	"profam/internal/suffixtree"
	"profam/internal/workload"
)

// bdFamiliesSet is a smaller corpus of bench's bd_families shape: a few
// big global-similarity families of long sequences.
func bdFamiliesSet() *seq.Set {
	set, _ := workload.Generate(workload.Params{
		Families: 2, MeanFamilySize: 30, MeanLength: 130, Divergence: 0.10,
		IndelRate: 0.005, ContainedFrac: 0.15, UniformSizes: true, Singletons: 4, Seed: 8,
	})
	return set
}

// memoCase is a corpus with the phase thresholds it is clustered under.
type memoCase struct {
	name    string
	set     *seq.Set
	pace    pace.Config
	bip     bipartite.Config
	minComp int
}

func memoCases() []memoCase {
	bdEdge := align.OverlapParams{MinSimilarity: 0.78, MinLongCoverage: 0.80}
	return []memoCase{
		{"integration", func() *seq.Set { s, _ := integrationSet(); return s }(),
			pace.Config{Psi: 6}, bipartite.Config{Psi: 6}, 3},
		{"bd_families", bdFamiliesSet(),
			pace.Config{Psi: 7}, bipartite.Config{Psi: 7, Edge: bdEdge}, 5},
	}
}

// insideComponents counts the verdicts whose two sequences share one of
// comps.
func insideComponents(verdicts []pace.Verdict, comps [][]int) int64 {
	compOf := map[int]int{}
	for ci, members := range comps {
		for _, id := range members {
			compOf[id] = ci
		}
	}
	var n int64
	for _, v := range verdicts {
		ca, okA := compOf[int(v.A)]
		cb, okB := compOf[int(v.B)]
		if okA && okB && ca == cb {
			n++
		}
	}
	return n
}

// TestBdMemoMatchesBuildBd: B_d graphs built from CCD's pair list and
// counts, as the pipeline's pair table feeds them, equal the graphs of
// the enumerating BuildBd adjacency for adjacency, on every component of
// two corpora at simulated p ∈ {1, 2, 4} × threads ∈ {1, 4}. The list
// holds exactly the pairs BuildBd enumerates in each component, aligned
// or reused; the counts decide exactly the CCD pairs inside each
// component, and the fresh counts are the ones BuildBd computes.
func TestBdMemoMatchesBuildBd(t *testing.T) {
	for _, tc := range memoCases() {
		for _, p := range []int{1, 2, 4} {
			for _, threads := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/ranks=%d/threads=%d", tc.name, p, threads), func(t *testing.T) {
					var list []pace.PairItem
					var verdicts []pace.Verdict
					var comp []int32
					var comps [][]int
					_, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
						pcfg := tc.pace
						pcfg.Threads = threads
						pairs, err := pace.Enumerate(c, tc.set, 0, pcfg, "rr")
						if err != nil {
							panic(err)
						}
						keep, _ := pace.RedundancyRemovalFrom(c, tc.set, pairs, nil, pcfg)
						cc, l, v, _ := pace.ConnectedComponentsFrom(c, tc.set, keep, pairs, nil, pcfg)
						if c.Rank() == 0 {
							list, verdicts, comp, comps = l, v, cc, pace.ComponentsBySize(cc, tc.minComp)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					counts := map[[2]int32]align.OverlapCounts{}
					for _, v := range verdicts {
						if v.A >= v.B {
							t.Fatalf("verdict (%d, %d) is not lower-first", v.A, v.B)
						}
						counts[[2]int32{v.A, v.B}] = v.Overlap
					}
					byComp := map[int32][]pace.Verdict{}
					for _, pr := range list {
						if l := comp[pr.A]; l == comp[pr.B] {
							byComp[l] = append(byComp[l], pace.Verdict{A: pr.A, B: pr.B, Overlap: counts[[2]int32{pr.A, pr.B}]})
						}
					}
					var reused int64
					for _, members := range comps {
						plain, pst, err := bipartite.BuildBd(tc.set, members, tc.bip)
						if err != nil {
							t.Fatal(err)
						}
						got, st := bipartite.BuildBdFrom(tc.set, members, byComp[comp[members[0]]], tc.bip)
						if fmt.Sprint(got.Adj, got.LeftSeq) != fmt.Sprint(plain.Adj, plain.LeftSeq) {
							t.Fatalf("component of %d: list-fed B_d differs from BuildBd", len(members))
						}
						if st.PairsAligned+st.PairsReused != pst.PairsAligned {
							t.Fatalf("component of %d: %d aligned + %d reused, BuildBd enumerates %d",
								len(members), st.PairsAligned, st.PairsReused, pst.PairsAligned)
						}
						if int64(len(st.Fresh)) != st.PairsAligned {
							t.Fatalf("%d fresh counts for %d aligned pairs", len(st.Fresh), st.PairsAligned)
						}
						want := map[[2]int32]align.OverlapCounts{}
						for _, f := range pst.Fresh {
							want[[2]int32{f.A, f.B}] = f.Overlap
						}
						for _, f := range st.Fresh {
							if oc := want[[2]int32{f.A, f.B}]; f.Overlap != oc {
								t.Fatalf("pair (%d, %d): fresh counts %+v, BuildBd's %+v", f.A, f.B, f.Overlap, oc)
							}
						}
						for k, oc := range counts {
							if w, ok := want[k]; ok && oc != w {
								t.Fatalf("pair %v: CCD counts %+v, BuildBd's %+v", k, oc, w)
							}
						}
						reused += st.PairsReused
					}
					if want := insideComponents(verdicts, comps); reused != want {
						t.Errorf("counts decided %d pairs, CCD aligned %d inside components", reused, want)
					}
					if reused == 0 {
						t.Error("no pair decided from CCD's counts")
					}
				})
			}
		}
	}
}

// TestBdAlignsEachPairOnce reads the product counters of a p=2 run: B_d
// enumerates every promising pair of a component once, aligned or
// reused, and reuses exactly the pairs CCD aligned inside the final
// components, so no pair is aligned twice.
func TestBdAlignsEachPairOnce(t *testing.T) {
	for _, tc := range memoCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := profam.Config{
				Psi:               tc.pace.Psi,
				OverlapSimilarity: 0.30, OverlapCoverage: 0.80,
				EdgeSimilarity:   tc.bip.Edge.MinSimilarity,
				MinComponentSize: tc.minComp, MinFamilySize: tc.minComp,
			}
			res, _, err := profam.RunSet(tc.set, 2, true, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var verdicts []pace.Verdict
			var comps [][]int
			_, err = mpi.RunSim(2, mpi.BlueGeneLike(), func(c *mpi.Comm) {
				// Replay CCD as the pipeline runs it: over the kept pairs
				// of the run's one enumeration.
				pairs, err := pace.Enumerate(c, tc.set, 0, tc.pace, "rr")
				if err != nil {
					panic(err)
				}
				comp, _, v, _ := pace.ConnectedComponentsFrom(c, tc.set, res.Keep, pairs, nil, tc.pace)
				if c.Rank() == 0 {
					verdicts, comps = v, pace.ComponentsBySize(comp, tc.minComp)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(comps) != fmt.Sprint(res.Components) {
				t.Fatal("CCD replay found other components than the pipeline")
			}
			if int64(len(verdicts)) != res.CCD.PairsAligned {
				t.Fatalf("CCD replay aligned %d pairs, the pipeline %d", len(verdicts), res.CCD.PairsAligned)
			}
			var enumerated int64
			for _, members := range res.Components {
				_, st, err := bipartite.BuildBd(tc.set, members, tc.bip)
				if err != nil {
					t.Fatal(err)
				}
				enumerated += st.PairsAligned
			}
			const red = "{reduction=global-similarity}"
			aligned := res.Metrics.CounterValue("bgg_pairs_aligned" + red)
			reused := res.Metrics.CounterValue("bgg_pairs_reused" + red)
			t.Logf("B_d enumerates %d pairs: %d aligned, %d reused from CCD's %d", enumerated, aligned, reused, len(verdicts))
			if aligned+reused != enumerated {
				t.Errorf("bgg_pairs_aligned %d + bgg_pairs_reused %d != %d pairs B_d enumerates", aligned, reused, enumerated)
			}
			if want := insideComponents(verdicts, res.Components); reused != want {
				t.Errorf("bgg_pairs_reused = %d, CCD aligned %d pairs inside final components", reused, want)
			}
		})
	}
}

// promisingPairs lists the sequence pairs B_d enumerates for a
// component: those sharing a maximal match of length ≥ psi, lower ID
// first.
func promisingPairs(t *testing.T, set *seq.Set, members []int, psi int) [][2]int {
	t.Helper()
	sub, orig := set.Subset(members)
	trees, err := esa.Build(sub, suffixtree.Options{MinMatch: psi})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	var out [][2]int
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		k := [2]int{orig[p.SeqA], orig[p.SeqB]}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
		return true
	})
	return out
}

// requireOnlyNewPairsAligned checks one epoch's B_d work against the
// previous epoch's components (prev; nil before the first epoch). A
// component whose membership is unchanged is served from the family
// cache and builds nothing. Every other component enumerates its
// promising pairs once, aligned or reused, and aligns only pairs with a
// member that was not in one previous component with the other.
func requireOnlyNewPairsAligned(t *testing.T, set *seq.Set, prev [][]int, res *profam.Result, psi int) {
	t.Helper()
	prevComp := map[int]int{}
	prevKey := map[string]bool{}
	for ci, members := range prev {
		prevKey[fmt.Sprint(members)] = true
		for _, id := range members {
			prevComp[id] = ci
		}
	}
	var enumerated, withNew int64
	for _, members := range res.Components {
		if prevKey[fmt.Sprint(members)] {
			continue
		}
		for _, pr := range promisingPairs(t, set, members, psi) {
			enumerated++
			ca, okA := prevComp[pr[0]]
			cb, okB := prevComp[pr[1]]
			if !okA || !okB || ca != cb {
				withNew++
			}
		}
	}
	const red = "{reduction=global-similarity}"
	aligned := res.Metrics.CounterValue("bgg_pairs_aligned" + red)
	reused := res.Metrics.CounterValue("bgg_pairs_reused" + red)
	if aligned+reused != enumerated {
		t.Errorf("B_d aligned %d + reused %d pairs, its components enumerate %d", aligned, reused, enumerated)
	}
	if aligned > withNew {
		t.Errorf("B_d aligned %d pairs, only %d have a member new to its component", aligned, withNew)
	}
}

// TestPairTableInvariant is the pair table's property test: over random
// corpora, arrival orders (fragments first forces demotions), wave splits
// and rank counts, after every RunEpoch wave the committed table holds
// exactly the pairs of two kept sequences that a cold enumeration of the
// union corpus lists, every count it stores is that of the local
// alignment of the lower ID against the higher, and the families equal a
// cold run's over the union corpus.
func TestPairTableInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	al := align.NewAligner(align.DefaultScoring())
	var demotions, known int64
	for trial := range 6 {
		set, truth := workload.Generate(workload.Params{
			Families: 2 + rng.Intn(3), MeanFamilySize: 6 + rng.Intn(6), MeanLength: 80 + rng.Intn(40),
			Divergence: 0.05 + 0.05*rng.Float64(), ContainedFrac: 0.4 * rng.Float64(),
			Singletons: rng.Intn(4), Seed: rng.Int63(),
		})
		names, seqs := setStrings(set)
		if trial%2 == 1 && slices.Contains(truth.Redundant, true) {
			names, seqs, _ = fragmentsFirst(t, set, truth)
		}
		p := 1 + rng.Intn(3)
		waves := splitWaves(names, seqs, 2+rng.Intn(3))
		t.Run(fmt.Sprintf("trial=%d/p=%d/waves=%d", trial, p, len(waves)), func(t *testing.T) {
			st := profam.NewEpochState()
			for wi, w := range waves {
				res, next, err := profam.RunEpoch(context.Background(), st, w[0], w[1], p, profam.Config{})
				if err != nil {
					t.Fatalf("wave %d: %v", wi, err)
				}
				st = next
				demotions += metricValue(res.Metrics, "pipeline_epoch_demotions")
				union := st.Set()
				cold, _, err := profam.RunSet(union, 1, false, profam.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if familiesText(t, union, res) != familiesText(t, union, cold) {
					t.Fatalf("wave %d: families differ from a cold run over the union corpus", wi)
				}
				var enumerated []pace.PairItem
				if _, err := mpi.RunSim(1, mpi.BlueGeneLike(), func(c *mpi.Comm) {
					if enumerated, err = pace.Enumerate(c, union, 0, pace.Config{Psi: 8}, "rr"); err != nil {
						panic(err)
					}
				}); err != nil {
					t.Fatal(err)
				}
				want := map[[2]int32]bool{}
				for _, pr := range enumerated {
					if res.Keep[pr.A] && res.Keep[pr.B] {
						want[[2]int32{pr.A, pr.B}] = true
					}
				}
				table := profam.PairTable(st)
				if len(table) != len(want) {
					t.Errorf("wave %d: table holds %d pairs, the union corpus has %d kept–kept pairs", wi, len(table), len(want))
				}
				for k, oc := range table {
					if !want[k] {
						t.Fatalf("wave %d: table pair %v is not a kept–kept promising pair", wi, k)
					}
					if oc == (align.OverlapCounts{}) {
						continue
					}
					known++
					a, b := union.Get(int(k[0])).Res, union.Get(int(k[1])).Res
					if exact := align.CountsOf(al.Align(a, b, align.Local), len(a), len(b)); oc != exact {
						t.Fatalf("wave %d: pair %v stores counts %+v, its alignment gives %+v", wi, k, oc, exact)
					}
				}
			}
		})
	}
	if demotions == 0 {
		t.Error("no trial demoted a sequence; the replay was not exercised")
	}
	if known == 0 {
		t.Error("no table pair carried counts")
	}
}
