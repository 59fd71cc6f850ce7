package profam_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"profam"
	"profam/internal/align"
	"profam/internal/experiments"
	"profam/internal/metrics"
	"profam/internal/seq"
	"profam/internal/workload"
)

// containmentChain returns three sequences with a ⊂ b ⊂ c under the
// default Definition-1 thresholds while a ⊄ c: b is a prefix of c with
// three substitutions inside a's window, and a is a window of b with
// three more, so a matches c at only 89 of 95 columns.
func containmentChain(rng *rand.Rand) (a, b, c string) {
	const alphabet = "ACDEFGHIKLMNPQRSTVWY"
	substitute := func(s []byte, at ...int) {
		for _, i := range at {
			k := strings.IndexByte(alphabet, s[i])
			s[i] = alphabet[(k+1+rng.Intn(len(alphabet)-1))%len(alphabet)]
		}
	}
	cr := make([]byte, 120)
	for i := range cr {
		cr[i] = alphabet[rng.Intn(len(alphabet))]
	}
	br := append([]byte(nil), cr[:110]...)
	substitute(br, 20, 50, 80)
	ar := append([]byte(nil), br[5:100]...)
	substitute(ar, 10, 40, 70)
	return string(ar), string(br), string(cr)
}

// chainIDs locates one planted chain's a, b and c in a set built by
// withChains.
type chainIDs [3]int

// withChains surrounds set with three containment chains split across
// its two ends, so that contiguous ingest waves cut every chain: the
// first has a and b at the front and c at the back, the second c at the
// front and b, a at the back, the third a and c at the front and the
// middle link b at the back. It returns the new set and the chains' IDs.
func withChains(t *testing.T, set *seq.Set, rng *rand.Rand) (*seq.Set, []chainIDs) {
	t.Helper()
	al := align.NewAligner(align.DefaultScoring())
	p := align.DefaultContainParams()
	var links [3][3]string
	for i := range links {
		a, b, c := containmentChain(rng)
		okAB, _ := al.Contained([]byte(a), []byte(b), p)
		okBC, _ := al.Contained([]byte(b), []byte(c), p)
		okAC, _ := al.Contained([]byte(a), []byte(c), p)
		if !okAB || !okBC || okAC {
			t.Fatalf("chain %d is not a chain: a⊂b %v, b⊂c %v, a⊂c %v", i, okAB, okBC, okAC)
		}
		links[i] = [3]string{a, b, c}
	}
	front := [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 0}, {2, 2}}
	back := [][2]int{{0, 2}, {1, 1}, {1, 0}, {2, 1}}
	out := seq.NewSet()
	ids := make([]chainIDs, len(links))
	add := func(at [][2]int) {
		for _, x := range at {
			ids[x[0]][x[1]] = out.Len()
			out.MustAdd(fmt.Sprintf("chain%d%c", x[0], "abc"[x[1]]), links[x[0]][x[1]])
		}
	}
	add(front)
	for _, s := range set.Seqs {
		out.MustAdd(s.Name, string(s.Res))
	}
	add(back)
	return out, ids
}

// requireChainsResolved checks Definition 1 on the planted chains: a
// and b each have an earlier container (b and c), c has none.
func requireChainsResolved(t *testing.T, keep []bool, chains []chainIDs) {
	t.Helper()
	for i, ch := range chains {
		if a, b, c := keep[ch[0]], keep[ch[1]], keep[ch[2]]; a || b || !c {
			t.Errorf("chain %d: keep a=%v b=%v c=%v, want false false true", i, a, b, c)
		}
	}
}

// TestOneAnswerForEveryExecution: redundancy removal is Definition 1 as
// a per-pair rule, so the keep mask, and with it every family, is one
// function of the corpus however it is run: serially, on 2 or 4
// in-process ranks, on 64 simulated ranks, at 1 or 4 threads per rank,
// or ingested in 1–4 incremental waves.
func TestOneAnswerForEveryExecution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base, _ := workload.Generate(workload.Params{
			Families:       1 + rng.Intn(3),
			MeanFamilySize: 4 + rng.Intn(8),
			MeanLength:     60 + rng.Intn(60),
			Divergence:     0.01 + rng.Float64()*0.08,
			IndelRate:      rng.Float64() * 0.005,
			ContainedFrac:  0.2 + rng.Float64()*0.3,
			Subfamilies:    1 + rng.Intn(2),
			Singletons:     1 + rng.Intn(3),
			Seed:           seed,
		})
		set, chains := withChains(t, base, rng)
		cfg := profam.Config{
			Psi:              6,
			MinComponentSize: 2,
			MinFamilySize:    2,
			BatchPairs:       32 + rng.Intn(256),
			BatchTasks:       8 + rng.Intn(64),
		}
		ref, _, err := profam.RunSet(set, 1, false, cfg)
		if err != nil {
			t.Fatalf("seed %d: serial run: %v", seed, err)
		}
		requireChainsResolved(t, ref.Keep, chains)
		want := fmt.Sprint(ref.Keep) + familiesText(t, set, ref)
		same := func(what string, res *profam.Result, s *seq.Set) bool {
			if got := fmt.Sprint(res.Keep) + familiesText(t, s, res); got != want {
				t.Logf("seed %d: %s: keep mask or families differ from the serial run", seed, what)
				return false
			}
			return true
		}
		ok := true
		for _, run := range []struct {
			p   int
			sim bool
		}{{2, false}, {4, false}, {64, true}} {
			for _, threads := range []int{1, 4} {
				c := cfg
				c.ThreadsPerRank = threads
				res, _, err := profam.RunSet(set, run.p, run.sim, c)
				if err != nil {
					t.Fatalf("seed %d: p=%d: %v", seed, run.p, err)
				}
				ok = same(fmt.Sprintf("p=%d sim=%v threads=%d", run.p, run.sim, threads), res, set) && ok
			}
		}
		names, seqs := setStrings(set)
		for waves := 1; waves <= 4; waves++ {
			c := cfg
			c.ThreadsPerRank = 1 + 3*(waves%2)
			st := profam.NewEpochState()
			var res *profam.Result
			for _, w := range splitWaves(names, seqs, waves) {
				if res, st, err = profam.RunEpoch(context.Background(), st, w[0], w[1], 2, c); err != nil {
					t.Fatalf("seed %d: %d waves: %v", seed, waves, err)
				}
			}
			ok = same(fmt.Sprintf("%d waves", waves), res, st.Set()) && ok
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}

// TestShardCorpusKeepsOneMask pins the regression behind the per-pair
// rule: on the master-bound corpus the old either-side-redundant skip
// kept 438 sequences serially and 429 at 64 simulated ranks.
func TestShardCorpusKeepsOneMask(t *testing.T) {
	set := experiments.ShardCorpus()
	cfg := experiments.ShardConfig()
	var keeps [2][]bool
	for i, p := range []int{1, 64} {
		res, _, err := profam.RunSet(set, p, true, cfg)
		if err != nil {
			t.Fatal(err)
		}
		keeps[i] = res.Keep
	}
	differ := 0
	for i := range keeps[0] {
		if keeps[0][i] != keeps[1][i] {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d keep decisions differ between p=1 and 64 simulated ranks", differ)
	}
}

// TestWorkerReplicaMatchesSerialWork: with one worker, its replica of
// the clustering state sees every outcome before the next task, so p=2
// aligns exactly the pairs p=1 aligns in both phases and in B_d. The
// corpus has the benchmark's redundant_short shape, where the master's
// stale filter alone let p=2 align over 20× the RR pairs of p=1.
func TestWorkerReplicaMatchesSerialWork(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 40, MeanFamilySize: 70, MeanLength: 32, Divergence: 0.004,
		IndelRate: 0.001, Subfamilies: 1, ContainedFrac: 0.5, UniformSizes: true,
		Singletons: 40, Seed: 1,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3, ThreadsPerRank: 1}
	var counts [2]map[string]int64
	for i, p := range []int{1, 2} {
		res, _, err := profam.RunSet(set, p, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = res.Metrics.Counters
	}
	for _, name := range []string{
		metrics.Name("pace_pairs_aligned", "phase", "rr"),
		metrics.Name("pace_pairs_aligned", "phase", "ccd"),
		metrics.Name("bgg_pairs_aligned", "reduction", "global-similarity"),
	} {
		if counts[0][name] != counts[1][name] {
			t.Errorf("%s: p=1 %d, p=2 %d", name, counts[0][name], counts[1][name])
		}
	}
	if skipped := counts[1][metrics.Name("pace_pairs_worker_skipped", "phase", "rr")]; skipped == 0 {
		t.Error("the worker's replica skipped no RR task at p=2")
	}
}
