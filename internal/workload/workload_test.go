package workload

import (
	"math/rand"
	"strings"
	"testing"

	"profam/internal/align"
)

func TestGenerateShape(t *testing.T) {
	set, truth := Generate(Params{Families: 5, MeanFamilySize: 8, Singletons: 3, Seed: 7})
	if set.Len() != len(truth.Label) || set.Len() != len(truth.Redundant) {
		t.Fatalf("truth arrays out of sync: %d %d %d", set.Len(), len(truth.Label), len(truth.Redundant))
	}
	if truth.NumFamilies != 5 {
		t.Errorf("NumFamilies = %d, want 5", truth.NumFamilies)
	}
	// Every family label 0..4 has >= 2 members; singleton labels unique.
	counts := map[int]int{}
	for _, l := range truth.Label {
		counts[l]++
	}
	for f := 0; f < 5; f++ {
		if counts[f] < 2 {
			t.Errorf("family %d has %d members", f, counts[f])
		}
	}
	singles := 0
	for l, c := range counts {
		if l >= 5 {
			singles++
			if c != 1 {
				t.Errorf("singleton label %d has %d members", l, c)
			}
		}
	}
	if singles != 3 {
		t.Errorf("got %d singleton labels, want 3", singles)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Generate(Params{Seed: 42, Families: 4})
	b, _ := Generate(Params{Seed: 42, Families: 4})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Seqs {
		if string(a.Get(i).Res) != string(b.Get(i).Res) {
			t.Fatalf("sequence %d differs between same-seed runs", i)
		}
	}
	c, _ := Generate(Params{Seed: 43, Families: 4})
	same := c.Len() == a.Len()
	if same {
		identical := true
		for i := range a.Seqs {
			if string(a.Get(i).Res) != string(c.Get(i).Res) {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical data")
		}
	}
}

func TestFragmentsAreContained(t *testing.T) {
	set, truth := Generate(Params{Families: 6, MeanFamilySize: 10, ContainedFrac: 0.5, Seed: 3})
	al := align.NewAligner(nil)
	p := align.DefaultContainParams()
	checked, contained := 0, 0
	for id, red := range truth.Redundant {
		if !red {
			continue
		}
		// The fragment's source is the immediately preceding sequence.
		src := set.Get(id - 1)
		if !strings.HasPrefix(set.Get(id).Name, src.Name) {
			t.Fatalf("fragment %q does not follow its source %q", set.Get(id).Name, src.Name)
		}
		checked++
		if al.Contained(set.Get(id).Res, src.Res, p) {
			contained++
		}
	}
	if checked == 0 {
		t.Fatal("no fragments generated")
	}
	if contained < checked*8/10 {
		t.Errorf("only %d/%d fragments satisfy Definition 1", contained, checked)
	}
}

func TestFamilyMembersOverlap(t *testing.T) {
	set, truth := Generate(Params{Families: 4, MeanFamilySize: 6, Divergence: 0.10, IndelRate: 0.005, Seed: 11})
	al := align.NewAligner(nil)
	p := align.DefaultOverlapParams()
	rng := rand.New(rand.NewSource(5))
	// Sample same-family pairs: most should pass Definition 2.
	byFam := map[int][]int{}
	for id, l := range truth.Label {
		if l < truth.NumFamilies && !truth.Redundant[id] {
			byFam[l] = append(byFam[l], id)
		}
	}
	tested, passed := 0, 0
	for _, ids := range byFam {
		for k := 0; k < 10 && len(ids) >= 2; k++ {
			i, j := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if i == j {
				continue
			}
			tested++
			if al.Overlaps(set.Get(i).Res, set.Get(j).Res, p) {
				passed++
			}
		}
	}
	if tested == 0 {
		t.Fatal("no pairs tested")
	}
	if passed < tested*7/10 {
		t.Errorf("only %d/%d same-family pairs overlap", passed, tested)
	}
}

func TestCrossFamilyPairsDoNotOverlap(t *testing.T) {
	set, truth := Generate(Params{Families: 6, MeanFamilySize: 5, Seed: 19})
	al := align.NewAligner(nil)
	p := align.DefaultOverlapParams()
	rng := rand.New(rand.NewSource(6))
	tested, passed := 0, 0
	for k := 0; k < 80; k++ {
		i, j := rng.Intn(set.Len()), rng.Intn(set.Len())
		if truth.Label[i] == truth.Label[j] {
			continue
		}
		tested++
		if al.Overlaps(set.Get(i).Res, set.Get(j).Res, p) {
			passed++
		}
	}
	if tested == 0 {
		t.Fatal("no cross pairs tested")
	}
	if passed > tested/10 {
		t.Errorf("%d/%d cross-family pairs overlap (too many false relations in generator)", passed, tested)
	}
}

func TestDomainFamiliesShareExactWords(t *testing.T) {
	set, truth := Generate(Params{Families: 1, DomainFamilies: 2, DomainSize: 5, Seed: 23})
	// Members of a domain family must share >= 1 exact 10-mer.
	byFam := map[int][]int{}
	for id, l := range truth.Label {
		if strings.HasPrefix(set.Get(id).Name, "dom") {
			byFam[l] = append(byFam[l], id)
		}
	}
	if len(byFam) != 2 {
		t.Fatalf("expected 2 domain families, got %d", len(byFam))
	}
	for fam, ids := range byFam {
		words := map[string]int{}
		for _, id := range ids {
			res := set.Get(id).Res
			seen := map[string]bool{}
			for o := 0; o+10 <= len(res); o++ {
				w := string(res[o : o+10])
				if !seen[w] {
					seen[w] = true
					words[w]++
				}
			}
		}
		shared := 0
		for _, c := range words {
			if c == len(ids) {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("domain family %d members share no exact 10-mers", fam)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	total := 0
	const n = 2000
	for i := 0; i < n; i++ {
		total += geometric(rng, 10)
	}
	mean := float64(total) / n
	if mean < 8 || mean > 12 {
		t.Errorf("geometric mean = %v, want ~10", mean)
	}
	if geometric(rng, 1) != 1 {
		t.Error("mean 1 must return 1")
	}
}

func TestMutateNeverEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		out := mutate(rng, []byte("AC"), 0.5, 0.9)
		if len(out) == 0 {
			t.Fatal("mutate produced empty sequence")
		}
	}
}
