package profam_test

import (
	"bytes"
	"fmt"
	"testing"

	"profam"
	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/workload"
)

// integrationSet builds a moderate data set with known structure.
func integrationSet() (*seq.Set, *workload.Truth) {
	return workload.Generate(workload.Params{
		Families: 5, MeanFamilySize: 12, MeanLength: 110,
		Divergence: 0.09, IndelRate: 0.004, Subfamilies: 2,
		ContainedFrac: 0.2, Singletons: 5, Seed: 2024,
	})
}

// TestPipelineDeterministic: repeated serial runs must give identical
// results (seeded shingles, ordered data structures).
func TestPipelineDeterministic(t *testing.T) {
	set, _ := integrationSet()
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	a, _, err := profam.RunSet(set, 1, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, _, err := profam.RunSet(set, 1, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Families) != fmt.Sprint(b.Families) {
			t.Fatal("serial pipeline not deterministic")
		}
	}
}

// TestPipelineTCPMatchesSerial runs the complete pipeline over real
// sockets and requires identical output to the serial reference. Rank 0
// alone holds the result: ranks 1 and 2 return nil, nil.
func TestPipelineTCPMatchesSerial(t *testing.T) {
	set, _ := integrationSet()
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	want, _, err := profam.RunSet(set, 1, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got *profam.Result
	err = mpi.RunTCP(3, 0, func(c *mpi.Comm) {
		res, err := profam.RunPipelineOn(c, set, cfg)
		if err != nil {
			panic(err)
		}
		switch {
		case c.Rank() == 0:
			got = res
		case res != nil:
			panic(fmt.Sprintf("rank %d returned a result", c.Rank()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("rank 0 returned no result")
	}
	if fmt.Sprint(got.Families) != fmt.Sprint(want.Families) {
		t.Error("TCP pipeline result differs from serial")
	}
	if got.NumNonRedundant != want.NumNonRedundant {
		t.Errorf("NR differs: %d vs %d", got.NumNonRedundant, want.NumNonRedundant)
	}
}

// TestSimulatedMatchesParallel: the virtual-time transport must produce
// the same clustering as the wall-clock transports at the same rank
// count (it is the same protocol, only time differs).
func TestSimulatedMatchesParallel(t *testing.T) {
	set, _ := integrationSet()
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		BatchPairs: 128, BatchTasks: 32}
	var inproc, sim *profam.Result
	err := mpi.Run(4, func(c *mpi.Comm) {
		r, err := profam.RunPipelineOn(c, set, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			inproc = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.RunSim(4, mpi.BlueGeneLike(), func(c *mpi.Comm) {
		r, err := profam.RunPipelineOn(c, set, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			sim = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(inproc.Families) != fmt.Sprint(sim.Families) {
		t.Error("simulated transport clustering differs from inproc at same rank count")
	}
}

// TestFASTAToPipelineFlow exercises the file-facing path end to end:
// generate, serialize, re-read, run.
func TestFASTAToPipelineFlow(t *testing.T) {
	set, _ := integrationSet()
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, set, 60); err != nil {
		t.Fatal(err)
	}
	res, err := profam.RunFASTA(&buf, profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInput != set.Len() {
		t.Errorf("round trip lost sequences: %d vs %d", res.NumInput, set.Len())
	}
	if len(res.Families) == 0 {
		t.Error("no families from FASTA flow")
	}
}

// TestRedundantSequencesNeverClustered: Keep=false sequences must not
// appear in any component or family.
func TestRedundantSequencesNeverClustered(t *testing.T) {
	set, _ := integrationSet()
	res, _, err := profam.RunSet(set, 1, false, profam.Config{Psi: 6, MinComponentSize: 2, MinFamilySize: 2})
	if err != nil {
		t.Fatal(err)
	}
	dropped := map[int]bool{}
	for id, k := range res.Keep {
		if !k {
			dropped[id] = true
		}
	}
	if len(dropped) == 0 {
		t.Fatal("nothing removed; fragments were planted")
	}
	for _, comp := range res.Components {
		for _, id := range comp {
			if dropped[id] {
				t.Fatalf("dropped sequence %d in a component", id)
			}
		}
	}
	for _, f := range res.Families {
		for _, id := range f.Members {
			if dropped[id] {
				t.Fatalf("dropped sequence %d in a family", id)
			}
		}
	}
}

// TestFamiliesAreWithinComponents: every family must be a subset of one
// connected component (dense subgraphs cannot span components).
func TestFamiliesAreWithinComponents(t *testing.T) {
	set, _ := integrationSet()
	res, _, err := profam.RunSet(set, 1, false, profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3})
	if err != nil {
		t.Fatal(err)
	}
	compOf := map[int]int{}
	for ci, comp := range res.Components {
		for _, id := range comp {
			compOf[id] = ci
		}
	}
	for fi, f := range res.Families {
		first, ok := compOf[f.Members[0]]
		if !ok {
			t.Fatalf("family %d member %d not in any component", fi, f.Members[0])
		}
		for _, id := range f.Members[1:] {
			if compOf[id] != first {
				t.Fatalf("family %d spans components %d and %d", fi, first, compOf[id])
			}
		}
	}
}
