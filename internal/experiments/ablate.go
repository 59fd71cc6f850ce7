package experiments

import (
	"fmt"
	"io"

	"profam/internal/mpi"
	"profam/internal/pace"
)

// AblateRow is one ablation configuration's outcome on the CCD phase.
type AblateRow struct {
	Name           string
	PairsGenerated int64
	PairsAligned   int64
	PairsClosure   int64
	SimSeconds     float64 // serial virtual time
	SameResult     bool    // components identical to the reference run
}

// Ablate runs the CCD phase under the design-choice ablations DESIGN.md
// calls out: the transitive-closure filter, the decreasing-match-length
// ordering and the ψ filter length.
func Ablate(scale float64) ([]AblateRow, error) {
	set, _ := SetOfSize(int(500*scale), 77)

	type variant struct {
		name string
		cfg  pace.Config
	}
	variants := []variant{
		{"reference (psi=7, closure on, ordered)", pace.Config{Psi: 7}},
		{"closure filter off", pace.Config{Psi: 7, DisableClosureFilter: true}},
		{"FIFO pair order", pace.Config{Psi: 7, RandomPairOrder: true}},
		{"psi=10", pace.Config{Psi: 10}},
	}

	var refComp []int32
	var rows []AblateRow
	for i, v := range variants {
		var st pace.Stats
		var comp []int32
		mk, err := mpi.RunSim(1, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			var err error
			comp, st, err = pace.ConnectedComponents(c, set, nil, v.cfg)
			if err != nil {
				panic(err)
			}
		})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			refComp = comp
		}
		rows = append(rows, AblateRow{
			Name:           v.name,
			PairsGenerated: st.PairsGenerated,
			PairsAligned:   st.PairsAligned,
			PairsClosure:   st.PairsClosure,
			SimSeconds:     mk,
			SameResult:     samePartitionInt32(comp, refComp),
		})
	}
	return rows, nil
}

// samePartitionInt32 checks two component labelings induce the same
// partition.
func samePartitionInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a {
		if (a[i] < 0) != (b[i] < 0) {
			return false
		}
		if a[i] < 0 {
			continue
		}
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := bwd[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

// PrintAblate renders the ablation table.
func PrintAblate(w io.Writer, rows []AblateRow) {
	fmt.Fprintln(w, "CCD design-choice ablations (serial; SameResult = components match the reference)")
	fmt.Fprintf(w, "%-44s %10s %10s %10s %10s %6s\n",
		"variant", "generated", "aligned", "closure", "simSec", "same")
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %10d %10d %10d %10.2f %6v\n",
			r.Name, r.PairsGenerated, r.PairsAligned, r.PairsClosure, r.SimSeconds, r.SameResult)
	}
}
