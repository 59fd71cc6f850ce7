package profam

import "profam/internal/align"

// PairTable returns the committed pair table of s: every promising pair
// of two kept sequences, lower ID first, with its overlap counts (zero
// until an alignment has computed them).
func PairTable(s *EpochState) map[[2]int32]align.OverlapCounts {
	out := make(map[[2]int32]align.OverlapCounts, len(s.table))
	for k, e := range s.table {
		out[k] = e.Overlap
	}
	return out
}
