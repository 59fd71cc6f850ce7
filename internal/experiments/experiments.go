// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section V) at container scale. Each experiment is a
// function returning printable results; cmd/benchtab is the CLI front end
// and the repository-root benchmarks wrap them in testing.B. Kernel
// micro-benchmarks are not experiments: their helpers live beside the Go
// benchmarks that call them (bench_test.go).
//
// Scaling: the paper's 160 K / 22 K / 10–160 K CAMERA samples on 32–512
// BlueGene/L nodes become synthetic data sets of ~125–2500 sequences on
// 32–512 *simulated* ranks (virtual-time transport). The reproduction
// target is the shape of each curve — who wins, by what factor, where
// behaviour changes — not absolute seconds.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"profam"
	"profam/internal/bipartite"
	"profam/internal/gos"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/quality"
	"profam/internal/seq"
	"profam/internal/shingle"
	"profam/internal/workload"
)

// Set160K builds the multi-family data set standing in for the paper's
// 160,000-sequence sample (221 GOS clusters, mean length 163). scale=1
// yields roughly 2,000 sequences across 20 families.
func Set160K(scale float64) (*seq.Set, *workload.Truth) {
	return workload.Generate(workload.Params{
		Families:       max2(1, int(20*scale)),
		MeanFamilySize: 85,
		MeanLength:     130,
		Divergence:     0.10,
		IndelRate:      0.005,
		Subfamilies:    4,    // GOS final clusters merge beyond raw similarity
		DominantFrac:   0.68, // calibrated toward the paper's SE ≈ 57 %
		ContainedFrac:  0.16, // the paper's RR kept 138K/160K ≈ 86 %
		Singletons:     max2(1, int(30*scale)),
		Seed:           160,
	})
}

// Set22K builds the single-large-cluster data set standing in for the
// paper's 22,186-sequence sample (one GOS cluster, mean length 256).
// scale=1 yields one family of roughly 400 members.
func Set22K(scale float64) (*seq.Set, *workload.Truth) {
	return workload.Generate(workload.Params{
		Families:       1,
		MeanFamilySize: max2(10, int(400*scale)),
		MeanLength:     180,
		Divergence:     0.10,
		IndelRate:      0.004,
		Subfamilies:    max2(2, int(34*scale)), // one component, many dense cores
		SubDivergence:  0.24,                   // gentle drift keeps the chain connected
		DominantFrac:   0.45,
		UniformSizes:   true, // the single cluster's size must track scale
		ContainedFrac:  0.05, // 22.2K -> 21.3K ≈ 96 % kept
		Singletons:     1,
		Seed:           22,
	})
}

// SetOfSize builds a data set with approximately n sequences, for the
// input-size sweeps of Figures 6 and 7a.
func SetOfSize(n int, seed int64) (*seq.Set, *workload.Truth) {
	fams := max2(2, n/100)
	return workload.Generate(workload.Params{
		Families:       fams,
		MeanFamilySize: max2(2, n*85/100/fams),
		MeanLength:     130,
		Divergence:     0.10,
		IndelRate:      0.005,
		ContainedFrac:  0.15,
		UniformSizes:   true, // controlled sweep: sizes must track n
		Singletons:     max2(1, n/100),
		Seed:           seed,
	})
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PipelineConfig is the configuration used throughout the experiments:
// the paper's defaults with the dense-subgraph minimum size of 5 and the
// fine-tuned (s, c) = (5, 300).
func PipelineConfig() profam.Config {
	return profam.Config{
		Psi:              7,
		EdgeSimilarity:   0.78, // above the GOS 70 % cutoff, calibrated toward the paper’s ~76 % density
		S1:               5,
		C1:               300,
		MinComponentSize: 5,
		MinFamilySize:    5,
	}
}

func paceConfigOf(cfg profam.Config) pace.Config {
	// Reuse the pipeline's parameter mapping through a tiny shim: the
	// fields below are what the pace phases consume.
	return pace.Config{Psi: cfg.Psi}
}

// --- Table I ------------------------------------------------------------

// Table1Row is one line of the paper's Table I.
type Table1Row struct {
	Name        string
	Input       int
	NonRedund   int
	Components  int
	DenseSub    int
	SeqInDS     int
	MeanDegree  float64
	MeanDensity float64
	LargestDS   int
}

// Table1 reproduces Table I on the 160K-like and 22K-like sets.
func Table1(scale float64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, item := range []struct {
		name string
		set  *seq.Set
	}{
		{"160K-like", first(Set160K(scale))},
		{"22K-like", first(Set22K(scale))},
	} {
		res, _, err := profam.RunSet(item.set, 1, false, PipelineConfig())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:        item.name,
			Input:       res.NumInput,
			NonRedund:   res.NumNonRedundant,
			Components:  len(res.Components),
			DenseSub:    len(res.Families),
			SeqInDS:     res.SeqsInFamilies(),
			MeanDegree:  res.MeanFamilyDegree(),
			MeanDensity: res.MeanFamilyDensity(),
			LargestDS:   res.LargestFamily(),
		})
	}
	return rows, nil
}

func first(s *seq.Set, _ *workload.Truth) *seq.Set { return s }

// PrintTable1 renders rows next to the paper's reference values.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table I — qualitative summary (scaled data)")
	fmt.Fprintln(w, "paper(160K): in=160000 NR=138633 CC=1861 DS=850 seqInDS=66083 meanDeg=26 density=76% largest=13263")
	fmt.Fprintln(w, "paper(22K):  in=22186  NR=21348  CC=1    DS=134 seqInDS=11524 meanDeg=20 density=78% largest=6828")
	fmt.Fprintf(w, "%-10s %7s %7s %5s %5s %8s %8s %8s %8s\n",
		"dataset", "#input", "#NR", "#CC", "#DS", "#seqDS", "meanDeg", "density", "largest")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d %7d %5d %5d %8d %8.1f %7.0f%% %8d\n",
			r.Name, r.Input, r.NonRedund, r.Components, r.DenseSub,
			r.SeqInDS, r.MeanDegree, 100*r.MeanDensity, r.LargestDS)
	}
}

// --- GOS-comparison quality ----------------------------------------------

// QualityResult carries the Equation 1–4 metrics of two comparisons: the
// pipeline against the planted truth (the stand-in for the GOS final
// clustering) and the pipeline against the in-repo GOS-style baseline.
type QualityResult struct {
	VsTruth    quality.Confusion
	VsBaseline quality.Confusion
	BaselineN  int // sequences in the baseline comparison subset
}

// Quality reproduces the paper's PR/SE/OQ/CC comparison.
func Quality(scale float64) (QualityResult, error) {
	var out QualityResult

	set, truth := Set160K(scale)
	res, _, err := profam.RunSet(set, 1, false, PipelineConfig())
	if err != nil {
		return out, err
	}
	out.VsTruth, err = quality.Compare(res.FamilyLabels(), truth.Label)
	if err != nil {
		return out, err
	}

	// The baseline is Θ(n²); compare on the (smaller) single-cluster set.
	bset, _ := Set22K(scale)
	out.BaselineN = bset.Len()
	bres := gos.Run(bset, gos.Config{})
	pres, _, err := profam.RunSet(bset, 1, false, PipelineConfig())
	if err != nil {
		return out, err
	}
	benchLabels := quality.LabelsFromClusters(bres.Clusters, bset.Len())
	out.VsBaseline, err = quality.Compare(pres.FamilyLabels(), benchLabels)
	return out, err
}

// PrintQuality renders the comparison next to the paper's numbers.
func PrintQuality(w io.Writer, q QualityResult) {
	fmt.Fprintln(w, "Quality vs benchmark clustering (paper 160K: PR=95.75% SE=56.89% OQ=55.49% CC=73.04%)")
	fmt.Fprintf(w, "vs planted truth:      %s\n", q.VsTruth)
	fmt.Fprintf(w, "vs GOS-style baseline: %s (on %d-seq single-cluster set)\n", q.VsBaseline, q.BaselineN)
}

// --- Table II and the scaling figures -------------------------------------

// RRCCDTimes holds the virtual run-times of the two master–worker phases
// for one (n, p) cell.
type RRCCDTimes struct {
	N, P     int
	RR, CCD  float64
	Makespan float64
}

// runRRCCD executes RR+CCD on p simulated ranks and reports phase times
// from each rank's clock at the end of each phase: RR ends when the last
// rank leaves it, and CCD takes the rest of the makespan.
func runRRCCD(set *seq.Set, p int, cfg profam.Config) (RRCCDTimes, error) {
	out := RRCCDTimes{N: set.Len(), P: p}
	pcfg := paceConfigOf(cfg)
	rrEnd := make([]float64, p)
	mk, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
		keep, _, err := pace.RedundancyRemoval(c, set, pcfg)
		if err != nil {
			panic(err)
		}
		rrEnd[c.Rank()] = c.Time()
		if _, _, err := pace.ConnectedComponents(c, set, keep, pcfg); err != nil {
			panic(err)
		}
	})
	out.RR = slices.Max(rrEnd)
	out.CCD, out.Makespan = mk-out.RR, mk
	return out, err
}

// Table2 reproduces Table II: RR and CCD run-times for the 80K-like input
// at p ∈ {32, 64, 128, 512}.
func Table2(scale float64) ([]RRCCDTimes, error) {
	set, _ := SetOfSize(int(1000*scale), 80)
	var rows []RRCCDTimes
	for _, p := range []int{32, 64, 128, 512} {
		r, err := runRRCCD(set, p, PipelineConfig())
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// PrintTable2 renders the rows next to the paper's reference values.
func PrintTable2(w io.Writer, rows []RRCCDTimes) {
	fmt.Fprintln(w, "Table II — RR and CCD run-times (s) for the 80K-like input (simulated ranks)")
	fmt.Fprintln(w, "paper(80K): RR 17476/10296/4560/2207, CCD 1068/777/528/670 at p=32/64/128/512")
	fmt.Fprintf(w, "%6s %12s %12s %12s\n", "p", "RR(s)", "CCD(s)", "total(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %12.1f %12.1f %12.1f\n", r.P, r.RR, r.CCD, r.RR+r.CCD)
	}
}

// Fig6 sweeps input size × processor count for the RR+CCD phases. The
// same matrix serves Figures 6a (time vs p), 6b (time vs n) and 7a
// (speedup vs p).
func Fig6(scale float64) ([]RRCCDTimes, error) {
	var out []RRCCDTimes
	for _, n := range []int{125, 250, 500, 1000, 2000} {
		n = int(float64(n) * scale)
		if n < 20 {
			n = 20
		}
		set, _ := SetOfSize(n, int64(n))
		for _, p := range []int{32, 64, 128, 512} {
			r, err := runRRCCD(set, p, PipelineConfig())
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// PrintFig6a renders run-time as a function of processor count.
func PrintFig6a(w io.Writer, cells []RRCCDTimes) {
	fmt.Fprintln(w, "Fig 6a — RR+CCD run-time (s) vs processors (paper: monotone decrease, larger n slower)")
	printMatrix(w, cells, false)
}

// PrintFig6b renders run-time as a function of input size.
func PrintFig6b(w io.Writer, cells []RRCCDTimes) {
	fmt.Fprintln(w, "Fig 6b — RR+CCD run-time (s) vs input size (paper: superlinear growth in n)")
	// Transpose: rows are n, columns are p — same matrix, same printer.
	printMatrix(w, cells, false)
}

// PrintFig7a renders speedup relative to the smallest processor count.
func PrintFig7a(w io.Writer, cells []RRCCDTimes) {
	fmt.Fprintln(w, "Fig 7a — speedup vs processors, relative to p=32 (paper: near-linear for large n, flattening for small n)")
	printMatrix(w, cells, true)
}

func printMatrix(w io.Writer, cells []RRCCDTimes, speedup bool) {
	ns := uniqueNs(cells)
	ps := uniquePs(cells)
	fmt.Fprintf(w, "%8s", "n\\p")
	for _, p := range ps {
		fmt.Fprintf(w, "%10d", p)
	}
	fmt.Fprintln(w)
	for _, n := range ns {
		fmt.Fprintf(w, "%8d", n)
		var base float64
		for i, p := range ps {
			t := lookup(cells, n, p)
			if i == 0 {
				base = t
			}
			if speedup {
				if t > 0 {
					fmt.Fprintf(w, "%10.2f", base/t)
				} else {
					fmt.Fprintf(w, "%10s", "-")
				}
			} else {
				fmt.Fprintf(w, "%10.1f", t)
			}
		}
		fmt.Fprintln(w)
	}
}

func uniqueNs(cells []RRCCDTimes) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cells {
		if !seen[c.N] {
			seen[c.N] = true
			out = append(out, c.N)
		}
	}
	return out
}

func uniquePs(cells []RRCCDTimes) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cells {
		if !seen[c.P] {
			seen[c.P] = true
			out = append(out, c.P)
		}
	}
	return out
}

func lookup(cells []RRCCDTimes, n, p int) float64 {
	for _, c := range cells {
		if c.N == n && c.P == p {
			return c.RR + c.CCD
		}
	}
	return 0
}

// --- Figure 5 -------------------------------------------------------------

// Fig5 reproduces the dense-subgraph size distribution of the 22K-like
// set (bucket width 5).
func Fig5(scale float64) (bounds, counts []int, err error) {
	set, _ := Set22K(scale)
	res, _, err := profam.RunSet(set, 1, false, PipelineConfig())
	if err != nil {
		return nil, nil, err
	}
	subs := make([]shingle.DenseSubgraph, 0, len(res.Families))
	for _, f := range res.Families {
		m := make([]int32, len(f.Members))
		for i, id := range f.Members {
			m[i] = int32(id)
		}
		subs = append(subs, shingle.DenseSubgraph{Members: m})
	}
	b, c := shingle.SizeHistogram(subs, 5)
	return b, c, nil
}

// PrintFig5 renders the histogram.
func PrintFig5(w io.Writer, bounds, counts []int) {
	fmt.Fprintln(w, "Fig 5 — dense subgraph size distribution, 22K-like set (paper: right-skewed, few large subgraphs)")
	for i, b := range bounds {
		fmt.Fprintf(w, "%4d-%-4d %4d ", b, b+4, counts[i])
		for k := 0; k < counts[i] && k < 60; k++ {
			fmt.Fprint(w, "#")
		}
		fmt.Fprintln(w)
	}
}

// --- Figure 7b -------------------------------------------------------------

// Fig7bCell is one serial DSD measurement.
type Fig7bCell struct {
	N       int // sequences in the component
	C       int // shingle count c
	Seconds float64
}

// Fig7b measures serial dense-subgraph detection wall-clock time as a
// function of component size and the (s, c) parameters, s fixed at 5.
func Fig7b(scale float64) ([]Fig7bCell, error) {
	var out []Fig7bCell
	for _, n := range []int{100, 200, 400, 800} {
		n = int(float64(n) * scale)
		if n < 10 {
			n = 10
		}
		set, _ := workload.Generate(workload.Params{
			Families: 1, MeanFamilySize: n, MeanLength: 130,
			Divergence: 0.10, ContainedFrac: 0.01, Singletons: 1,
			UniformSizes: true, Subfamilies: max2(2, n/40),
			Seed: int64(700 + n),
		})
		members := make([]int, set.Len())
		for i := range members {
			members[i] = i
		}
		g, _, err := bipartite.BuildBd(set, members, bipartite.Config{Psi: 7})
		if err != nil {
			return nil, err
		}
		for _, c := range []int{100, 200, 300, 400} {
			start := time.Now()
			shingle.Detect(g, shingle.Params{S1: 5, C1: c, MinSize: 5})
			out = append(out, Fig7bCell{N: set.Len(), C: c, Seconds: time.Since(start).Seconds()})
		}
	}
	return out, nil
}

// PrintFig7b renders the serial DSD run-time matrix.
func PrintFig7b(w io.Writer, cells []Fig7bCell) {
	fmt.Fprintln(w, "Fig 7b — serial DSD wall-clock (s) vs component size and (s=5, c) (paper: grows with both n and c)")
	cs := []int{100, 200, 300, 400}
	fmt.Fprintf(w, "%8s", "n\\c")
	for _, c := range cs {
		fmt.Fprintf(w, "%10d", c)
	}
	fmt.Fprintln(w)
	ns := map[int]bool{}
	var order []int
	for _, cell := range cells {
		if !ns[cell.N] {
			ns[cell.N] = true
			order = append(order, cell.N)
		}
	}
	for _, n := range order {
		fmt.Fprintf(w, "%8d", n)
		for _, c := range cs {
			for _, cell := range cells {
				if cell.N == n && cell.C == c {
					fmt.Fprintf(w, "%10.4f", cell.Seconds)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// --- Work-reduction claim ---------------------------------------------------

// WorkRed quantifies the paper's "99 % work reduction" claim on the
// 40K-like input: promising pairs generated vs aligned vs the all-pairs
// count a BLAST-style approach would evaluate.
type WorkRed struct {
	N              int
	AllPairs       int64
	PairsGenerated int64
	PairsAligned   int64
	Reduction      float64 // vs generated
	VsAllPairs     float64 // aligned vs all-pairs
}

// WorkReduction runs CCD serially on a 40K-like (scaled) input.
func WorkReduction(scale float64) (WorkRed, error) {
	set, _ := SetOfSize(int(500*scale), 40)
	cfg := PipelineConfig()
	var out WorkRed
	out.N = set.Len()
	_, err := mpi.RunSim(1, mpi.CostModel{}, func(c *mpi.Comm) {
		_, st, err := pace.ConnectedComponents(c, set, nil, paceConfigOf(cfg))
		if err != nil {
			panic(err)
		}
		out.PairsGenerated = st.PairsGenerated
		out.PairsAligned = st.PairsAligned
	})
	if err != nil {
		return out, err
	}
	n := int64(set.Len())
	out.AllPairs = n * (n - 1) / 2
	if out.PairsGenerated > 0 {
		out.Reduction = 1 - float64(out.PairsAligned)/float64(out.PairsGenerated)
	}
	if out.AllPairs > 0 {
		out.VsAllPairs = 1 - float64(out.PairsAligned)/float64(out.AllPairs)
	}
	return out, nil
}

// PrintWorkRed renders the work-reduction numbers.
func PrintWorkRed(w io.Writer, r WorkRed) {
	fmt.Fprintln(w, "Work reduction, CCD phase (paper 40K: 168M promising pairs, 7M aligned, ~99% vs all-pairs)")
	fmt.Fprintf(w, "n=%d: all-pairs=%d, generated=%d, aligned=%d\n", r.N, r.AllPairs, r.PairsGenerated, r.PairsAligned)
	fmt.Fprintf(w, "reduction vs generated pairs: %.1f%%; vs all-pairs alignment: %.1f%%\n",
		100*r.Reduction, 100*r.VsAllPairs)
}
