// Package workload generates synthetic metagenomic ORF collections with
// known ground truth, standing in for the CAMERA/GOS environmental data
// the paper samples (which is not redistributable and far exceeds a
// single-node budget).
//
// A data set is a union of:
//
//   - global-similarity families: mutated descendants of a random
//     ancestral protein (substitutions + short indels), the structure the
//     paper's B_d reduction detects;
//   - domain families: sequences sharing a few conserved domain blocks
//     embedded in unrelated backbones, the structure the B_m reduction
//     detects;
//   - contained fragments: near-exact substrings of existing members,
//     which redundancy removal must eliminate;
//   - singletons: random sequences unrelated to everything else.
//
// Ground-truth family labels play the role of the GOS benchmark
// clustering in the quality experiments.
package workload

import (
	"fmt"
	"math/rand"

	"profam/internal/seq"
)

// Params configure generation. Zero values select the documented
// defaults.
type Params struct {
	Families       int     // number of global-similarity families (default 20)
	MeanFamilySize int     // geometric mean members per family (default 30)
	MeanLength     int     // mean ancestor length in residues (default 160)
	Divergence     float64 // per-residue substitution rate member vs ancestor (default 0.12)
	// Subfamilies > 1 gives each family hierarchical structure: the
	// family is a chain of subfamilies whose ancestors drift apart by
	// SubDivergence per hop. Members within a subfamily are strongly
	// similar; across subfamilies only weakly — the family forms one
	// connected component that fragments into several dense subgraphs,
	// like the paper's 22K single-cluster data set. Truth labels stay at
	// family granularity (the GOS-style benchmark view).
	Subfamilies   int     // default 1 (flat families)
	SubDivergence float64 // ancestor drift per subfamily hop (default 0.30)
	// DominantFrac is the fraction of a family's members placed in its
	// first subfamily (default 0.6 when Subfamilies > 1): real family
	// size distributions are strongly right-skewed — the paper's largest
	// dense subgraph holds ~60 % of its data set's covered sequences.
	DominantFrac float64
	// UniformSizes makes every family exactly MeanFamilySize members
	// (instead of geometric samples); used by controlled input-size
	// sweeps.
	UniformSizes   bool
	IndelRate      float64 // per-residue indel initiation rate (default 0.01)
	ContainedFrac  float64 // fraction of members that also spawn a contained fragment (default 0.15)
	Singletons     int     // unrelated sequences (default Families)
	DomainFamilies int     // number of domain-sharing families (default 0)
	DomainSize     int     // members per domain family (default 12)
	Seed           int64   // PRNG seed (default 1)
}

func (p Params) withDefaults() Params {
	if p.Families == 0 {
		p.Families = 20
	}
	if p.MeanFamilySize == 0 {
		p.MeanFamilySize = 30
	}
	if p.MeanLength == 0 {
		p.MeanLength = 160
	}
	if p.Divergence == 0 {
		p.Divergence = 0.12
	}
	if p.IndelRate == 0 {
		p.IndelRate = 0.01
	}
	if p.ContainedFrac == 0 {
		p.ContainedFrac = 0.15
	}
	if p.Subfamilies == 0 {
		p.Subfamilies = 1
	}
	if p.SubDivergence == 0 {
		p.SubDivergence = 0.30
	}
	if p.DominantFrac == 0 {
		p.DominantFrac = 0.6
	}
	if p.Singletons == 0 {
		p.Singletons = p.Families
	}
	if p.DomainSize == 0 {
		p.DomainSize = 12
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Truth is the generator's ground truth.
type Truth struct {
	// Label[id] is the family of sequence id. Singletons get unique
	// labels. Contained fragments carry their source's label.
	Label []int
	// Redundant[id] marks sequences emitted as contained fragments; the
	// redundancy-removal phase should eliminate (most of) these.
	Redundant []bool
	// NumFamilies is the number of distinct planted multi-member
	// families (global + domain), not counting singleton labels.
	NumFamilies int
}

// residue background frequencies (approximately the Robinson–Robinson
// amino-acid composition), as cumulative per-mille thresholds.
var background = []struct {
	r   byte
	cum int
}{
	{'A', 78}, {'R', 129}, {'N', 174}, {'D', 227}, {'C', 246},
	{'Q', 288}, {'E', 350}, {'G', 424}, {'H', 447}, {'I', 498},
	{'L', 589}, {'K', 648}, {'M', 671}, {'F', 711}, {'P', 763},
	{'S', 834}, {'T', 892}, {'W', 905}, {'Y', 937}, {'V', 1000},
}

func randResidue(rng *rand.Rand) byte {
	x := rng.Intn(1000)
	for _, b := range background {
		if x < b.cum {
			return b.r
		}
	}
	return 'V'
}

func randProtein(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = randResidue(rng)
	}
	return b
}

// mutate applies substitutions at rate div and short indels at rate
// indel, returning a new sequence.
func mutate(rng *rand.Rand, src []byte, div, indel float64) []byte {
	out := make([]byte, 0, len(src)+8)
	for i := 0; i < len(src); i++ {
		if rng.Float64() < indel {
			if rng.Intn(2) == 0 {
				// Deletion of 1–3 residues.
				i += rng.Intn(3) // loop increment deletes one more
				continue
			}
			// Insertion of 1–3 residues.
			for k := 0; k <= rng.Intn(3); k++ {
				out = append(out, randResidue(rng))
			}
		}
		c := src[i]
		if rng.Float64() < div {
			c = randResidue(rng)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		out = append(out, randResidue(rng))
	}
	return out
}

// geometric returns a sample with the given mean (≥ 1).
func geometric(rng *rand.Rand, mean int) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / float64(mean)
	n := 1
	for rng.Float64() > p && n < 50*mean {
		n++
	}
	return n
}

// jitterLen samples a length around mean (±35 %).
func jitterLen(rng *rand.Rand, mean int) int {
	lo := mean * 65 / 100
	span := mean*135/100 - lo
	if span < 1 {
		span = 1
	}
	return lo + rng.Intn(span)
}

// Generate produces the data set and its ground truth.
func Generate(p Params) (*seq.Set, *Truth) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	set := seq.NewSet()
	truth := &Truth{}

	add := func(name string, res []byte, label int, redundant bool) {
		set.MustAdd(name, string(res))
		truth.Label = append(truth.Label, label)
		truth.Redundant = append(truth.Redundant, redundant)
	}

	label := 0
	// Global-similarity families.
	for f := 0; f < p.Families; f++ {
		anc := randProtein(rng, jitterLen(rng, p.MeanLength))
		size := p.MeanFamilySize
		if !p.UniformSizes {
			size = geometric(rng, p.MeanFamilySize)
		}
		if size < 2 {
			size = 2
		}
		subAnc := anc
		// The first subfamily is dominant; the rest split the remainder.
		restMean := 1
		if p.Subfamilies > 1 {
			restMean = int(float64(size)*(1-p.DominantFrac))/(p.Subfamilies-1) + 1
		}
		emitted := 0
		for sf := 0; emitted < size; sf++ {
			if sf > 0 {
				// Drift the subfamily ancestor along a chain so the
				// family stays one connected component while its dense
				// cores separate.
				subAnc = mutate(rng, subAnc, p.SubDivergence, 0)
			}
			var subSize int
			switch {
			case p.Subfamilies == 1:
				subSize = size
			case sf == 0:
				subSize = int(float64(size) * p.DominantFrac)
				if subSize < 1 {
					subSize = 1
				}
			default:
				// Satellite subfamilies stay geometric even under
				// UniformSizes: that flag pins the family total, not the
				// internal size spread (which Figure 5 depends on).
				subSize = geometric(rng, restMean)
			}
			if subSize > size-emitted {
				subSize = size - emitted
			}
			for m := 0; m < subSize; m++ {
				// Per-member divergence jitter (0.5×–1.5×) spreads the
				// within-family similarity distribution, so similarity
				// graphs are dense but not complete — matching the
				// ~76 % observed density the paper reports.
				memDiv := p.Divergence * (0.5 + rng.Float64())
				mem := mutate(rng, subAnc, memDiv, p.IndelRate)
				add(fmt.Sprintf("fam%d_s%d_m%d", f, sf, m), mem, label, false)
				emitted++
				if rng.Float64() < p.ContainedFrac && len(mem) >= 40 {
					// A near-exact fragment covering ≥ 60 % of the member.
					flen := len(mem)*60/100 + rng.Intn(len(mem)*35/100)
					if flen > len(mem) {
						flen = len(mem)
					}
					off := rng.Intn(len(mem) - flen + 1)
					frag := mutate(rng, mem[off:off+flen], 0.01, 0)
					add(fmt.Sprintf("fam%d_s%d_m%d_frag", f, sf, m), frag, label, true)
				}
			}
		}
		label++
	}

	// Domain families: k shared blocks in unrelated backbones.
	for f := 0; f < p.DomainFamilies; f++ {
		ndom := 2 + rng.Intn(2)
		domains := make([][]byte, ndom)
		for d := range domains {
			domains[d] = randProtein(rng, 30+rng.Intn(20))
		}
		for m := 0; m < p.DomainSize; m++ {
			var res []byte
			res = append(res, randProtein(rng, 10+rng.Intn(20))...)
			for _, d := range domains {
				// Domains stay near-exact across members (conserved).
				res = append(res, mutate(rng, d, 0.02, 0)...)
				res = append(res, randProtein(rng, 5+rng.Intn(15))...)
			}
			add(fmt.Sprintf("dom%d_m%d", f, m), res, label, false)
		}
		label++
	}
	truth.NumFamilies = label

	// Singletons.
	for s := 0; s < p.Singletons; s++ {
		add(fmt.Sprintf("sing%d", s), randProtein(rng, jitterLen(rng, p.MeanLength)), label, false)
		label++
	}

	return set, truth
}
