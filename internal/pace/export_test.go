package pace

import (
	"profam/internal/mpi"
	"profam/internal/seq"
)

// ExactRedundancyRemoval is RedundancyRemoval with RR's containment
// cascade swapped for the full-matrix Contained predicate, the reference
// arm of the cascade tests.
func ExactRedundancyRemoval(c *mpi.Comm, set *seq.Set, cfg Config) ([]bool, Stats, error) {
	pairs, err := Enumerate(c, set, 0, cfg, "rr")
	if err != nil {
		return nil, Stats{}, err
	}
	keep, st := redundancyRemoval(c, set, pairs, nil, cfg, true)
	return keep, st, nil
}
