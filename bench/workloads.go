package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"profam"
	"profam/internal/seq"
	"profam/internal/workload"
)

// ranks is fixed: the reference host has two cores, and a run must never
// have more busy threads than cores or it measures the scheduler.
// Every rank runs single-threaded.
const ranks = 2

// spec is one workload: how its corpus is generated from the run's seed
// and which pipeline configuration it is clustered under.
type spec struct {
	name string
	why  string
	// params is the generator input; Seed is overwritten with the run's.
	params workload.Params
	// keep thins the generated families so that the work in a corpus
	// stays put from seed to seed; see familyPick.
	keep    familyPick
	cfg     profam.Config
	service bool
}

// f1Floor is the least pairwise F1 against the planted truth that counts
// as a correct run. Every workload scores 0.95 to 1 on every seed tried.
const f1Floor = 0.85

// familyPick keeps only n of the generated families whose sequence names
// start with prefix ("fam" global-similarity, "dom" domain): those whose
// weight is nearest want. Everything else in the corpus stays. The
// generator draws family shapes from a wide range (±35 % on an
// ancestor's length, two or three domains of 30–49 residues) and
// alignment and shingling work go with length or its square, so a corpus
// of a few families would differ in work by tens of percent from seed to
// seed. The seed is meant to vary the residues, not the size of the
// problem. The zero value keeps everything.
type familyPick struct {
	prefix string
	n      int
	weight func(members []*seq.Sequence) float64
	want   float64
}

// meanLength weighs a global-similarity family by what its alignments
// cost.
func meanLength(members []*seq.Sequence) float64 {
	var residues int
	for _, m := range members {
		residues += m.Len()
	}
	return float64(residues) / float64(len(members))
}

// spanningMembers weighs a domain family by how many of its members the
// clustering phase can link: those whose shared domains span at least
// 80 % of their length, the overlap definition's coverage. Each member
// gets flanks and spacers of its own random length, so planted domain
// families differ widely in how many members end up in one component.
// A member's domain span runs from its first to its last w-mer (w = 10,
// the pipeline's word length) that another member holds too.
func spanningMembers(members []*seq.Sequence) float64 {
	const w = 10
	holders := map[string]int{} // word → the one member holding it, +1; -1 once shared
	for i, m := range members {
		for off := 0; off+w <= m.Len(); off++ {
			word := string(m.Res[off : off+w])
			if h := holders[word]; h == 0 {
				holders[word] = i + 1
			} else if h != i+1 {
				holders[word] = -1
			}
		}
	}
	spanning := 0
	for _, m := range members {
		first, last := -1, -1
		for off := 0; off+w <= m.Len(); off++ {
			if holders[string(m.Res[off:off+w])] == -1 {
				if first < 0 {
					first = off
				}
				last = off + w
			}
		}
		if first >= 0 && float64(last-first) >= 0.8*float64(m.Len()) {
			spanning++
		}
	}
	return float64(spanning)
}

// pipelineConfig is experiments.PipelineConfig with every default the
// pipeline would fill in written out, because the staged traced run
// hands the same numbers to each layer directly. One thread per rank.
func pipelineConfig() profam.Config {
	return profam.Config{
		Psi:             7,
		ContainIdentity: 0.95, ContainCoverage: 0.95,
		OverlapSimilarity: 0.30, OverlapCoverage: 0.80,
		EdgeSimilarity: 0.78,
		W:              10,
		S1:             5, C1: 300, S2: 5, C2: 100,
		Tau:              0.5,
		MinComponentSize: 5, MinFamilySize: 5,
		Seed:           20081117,
		ThreadsPerRank: 1,
	}
}

func specs() []spec {
	bd := spec{
		name: "bd_families",
		why:  "few big global-similarity components: per-component suffix tree and overlap alignment in bipartite.BuildBd dominate",
		// The experiments.SetOfSize shape; forty families generated, two kept.
		params: workload.Params{
			Families: 40, MeanFamilySize: 85, MeanLength: 130, Divergence: 0.10,
			IndelRate: 0.005, ContainedFrac: 0.15, UniformSizes: true, Singletons: 4,
		},
		keep: familyPick{prefix: "fam", n: 2, weight: meanLength, want: 130},
		cfg:  pipelineConfig(),
	}

	short := spec{
		name: "redundant_short",
		why:  "thousands of short near-duplicate sequences: pair generation and the redundancy-removal master dominate, phases 3 and 4 stay small",
		// The experiments.ShardCorpus shape with uniform family sizes; 120
		// families generated, 40 kept.
		params: workload.Params{
			Families: 120, MeanFamilySize: 70, MeanLength: 32, Divergence: 0.004,
			IndelRate: 0.001, Subfamilies: 1, ContainedFrac: 0.5, UniformSizes: true, Singletons: 40,
		},
		keep: familyPick{prefix: "fam", n: 40, weight: meanLength, want: 32},
		cfg:  pipelineConfig(),
	}
	short.cfg.Psi, short.cfg.MinComponentSize, short.cfg.MinFamilySize = 6, 3, 3

	bm := spec{
		name: "bm_domains",
		why:  "domain families under the B_m reduction: shingle.Detect and its allocations dominate, no phase-3 alignment at all",
		params: workload.Params{
			// The generator wants one global family at least; a pair of
			// sequences never makes a component of five.
			Families: 1, MeanFamilySize: 2, DomainFamilies: 48, DomainSize: 12,
			MeanLength: 130, UniformSizes: true,
		},
		// Eight families in which about every member can be linked.
		keep: familyPick{prefix: "dom", n: 8, weight: spanningMembers, want: 12},
		cfg:  pipelineConfig(),
	}
	bm.cfg.Reduction = profam.DomainBased

	svc := spec{
		name: "service_waves",
		why:  "profamd session: a closed-loop writer adds family-clustered waves to a seeded corpus while an open-loop reader queries, so epochs are incremental",
		params: workload.Params{
			Families: 44, MeanFamilySize: 12, MeanLength: 130, UniformSizes: true,
		},
		cfg:     pipelineConfig(),
		service: true,
	}
	return []spec{bd, short, bm, svc}
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs() {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// corpus is a generated input: the sequences, their planted family
// labels, and the FASTA bytes that are all the program ever sees.
type corpus struct {
	set   *seq.Set
	label []int
	fasta []byte
	sha   string // SHA-256 of fasta
}

// buildCorpus generates the workload's corpus from seed. It is a pure
// function of (spec, seed).
func buildCorpus(sp spec, seed int64) (corpus, error) {
	p := sp.params
	p.Seed = seed
	set, truth := workload.Generate(p)
	label := truth.Label
	if sp.keep.n > 0 {
		set, label = keepNearestFamilies(set, truth, sp.keep)
	}
	return encodeCorpus(set, label)
}

func encodeCorpus(set *seq.Set, label []int) (corpus, error) {
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, set, 60); err != nil {
		return corpus{}, fmt.Errorf("encoding corpus: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return corpus{set: set, label: label, fasta: buf.Bytes(), sha: hex.EncodeToString(sum[:])}, nil
}

// keepNearestFamilies applies pick; sequence order is preserved.
// Contained fragments do not count towards a family's weight.
func keepNearestFamilies(set *seq.Set, truth *workload.Truth, pick familyPick) (*seq.Set, []int) {
	label := truth.Label
	members := map[int][]*seq.Sequence{} // per candidate family
	for id, l := range label {
		if sq := set.Get(id); strings.HasPrefix(sq.Name, pick.prefix) && !truth.Redundant[id] {
			members[l] = append(members[l], sq)
		}
	}
	fams := make([]int, 0, len(members))
	dist := map[int]float64{}
	for l, m := range members {
		fams = append(fams, l)
		dist[l] = math.Abs(pick.weight(m) - pick.want)
	}
	sort.Slice(fams, func(i, j int) bool {
		if di, dj := dist[fams[i]], dist[fams[j]]; di != dj {
			return di < dj
		}
		return fams[i] < fams[j]
	})
	dropped := map[int]bool{}
	for _, l := range fams[min(pick.n, len(fams)):] {
		dropped[l] = true
	}
	var ids []int
	for id, l := range label {
		if !dropped[l] {
			ids = append(ids, id)
		}
	}
	sub, orig := set.Subset(ids)
	sublabel := make([]int, len(orig))
	for i, id := range orig {
		sublabel[i] = label[id]
	}
	return sub, sublabel
}

// arrival is the order a service session feeds a corpus to the daemon:
// one seed submission, then waves. Entries are sequence IDs.
type arrival struct {
	seed  []int
	waves [][]int
}

// waveSizes is the cycle of wave lengths.
var waveSizes = []int{4, 5, 6}

// planArrival is a pure function of the corpus order and its labels.
// The seed is the first 60 % (rounded up) of every family, singletons
// included; the remaining members follow family by family, cut into
// waves of 4–6. Family-clustered arrival is the realistic case in which
// incremental epochs pay: a wave touches one or two components and the
// rest come from the family cache.
func planArrival(label []int) arrival {
	var order []int // labels by first appearance
	members := map[int][]int{}
	for id, l := range label {
		if _, seen := members[l]; !seen {
			order = append(order, l)
		}
		members[l] = append(members[l], id)
	}
	var a arrival
	var rest []int
	for _, l := range order {
		m := members[l]
		cut := (len(m)*6 + 9) / 10
		a.seed = append(a.seed, m[:cut]...)
		rest = append(rest, m[cut:]...)
	}
	for i := 0; len(rest) > 0; i++ {
		n := waveSizes[i%len(waveSizes)]
		if len(rest)-n < waveSizes[0] {
			n = len(rest) // a remnant too short for a wave rides with the last one
		}
		a.waves = append(a.waves, rest[:n])
		rest = rest[n:]
	}
	return a
}

// inArrivalOrder returns the corpus as the daemon will hold it once the
// whole arrival has been ingested: sequence IDs follow arrival order.
func inArrivalOrder(c corpus, a arrival) (corpus, error) {
	ids := append([]int(nil), a.seed...)
	for _, w := range a.waves {
		ids = append(ids, w...)
	}
	sub, orig := c.set.Subset(ids)
	label := make([]int, len(orig))
	for i, id := range orig {
		label[i] = c.label[id]
	}
	return encodeCorpus(sub, label)
}
