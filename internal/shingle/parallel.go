package shingle

import (
	"profam/internal/bipartite"
	"profam/internal/mpi"
)

// This file implements the parallelization of the Shingle algorithm that
// the paper lists as future work ("our goal is to parallelize the
// shingle step to address the need for memory"). Pass I dominates both
// memory (O(m·c) first-level shingle tuples) and compute (c permutations
// over every adjacency list), and is embarrassingly parallel over left
// vertices: each rank shingles a contiguous slice of Vl and ships its
// <shingle, vertex> tuples to rank 0, which runs the (much smaller)
// second pass and the union–find reporting. Every rank returns the same
// result.

// WireSize implements mpi.Sized.
func (t shingleTuples) WireSize() int { return 16 + 12*len(t.Hashes) }

// RegisterWireTypes registers the parallel-shingle payloads for the TCP
// transport.
func RegisterWireTypes() {
	mpi.RegisterType(shingleTuples{})
	mpi.RegisterType(wireSubgraphs{})
}

type wireSubgraphs struct {
	Sizes      []int32
	Members    []int32 // concatenated
	MeanDegree []float64
	Density    []float64
}

// WireSize implements mpi.Sized.
func (w wireSubgraphs) WireSize() int {
	return 24 + 4*len(w.Sizes) + 4*len(w.Members) + 16*len(w.MeanDegree)
}

const (
	tagTuples = 40
	tagResult = 41
)

// DetectParallel runs the two-pass Shingle algorithm with pass I
// distributed over all ranks of c. The result is identical to
// Detect(g, p) — the permutation family is seeded, so shingles do not
// depend on which rank computes them.
func DetectParallel(c *mpi.Comm, g *bipartite.Graph, p Params) ([]DenseSubgraph, Stats) {
	p = p.withDefaults()
	if c.Size() == 1 {
		return Detect(g, p)
	}

	// Pass I over this rank's slice of left vertices.
	rank, size := c.Rank(), c.Size()
	mine, ops := passOne(g, g.NLeft*rank/size, g.NLeft*(rank+1)/size, p)
	c.Advance(float64(ops) * SecPerHashOp)

	// Gather tuples at rank 0; it completes the algorithm.
	gathered := c.Gather(0, mine)
	var subs []DenseSubgraph
	var st Stats
	if rank == 0 {
		// Tuples arrive in rank order with ascending vertex order within
		// each rank: concatenated they are the serial pass-I output.
		var all shingleTuples
		for _, part := range gathered {
			t := part.(shingleTuples)
			all.Hashes = append(all.Hashes, t.Hashes...)
			all.Verts = append(all.Verts, t.Verts...)
		}
		st.LeftVertices = g.NLeft
		st.WorkOps = ops // rank-0 share; workers' ops are on their clocks
		subs, st = reportFromShingles(g, p, all, st)
	}

	// Broadcast the result so every rank returns the same families.
	var wire wireSubgraphs
	if rank == 0 {
		for _, d := range subs {
			wire.Sizes = append(wire.Sizes, int32(len(d.Members)))
			wire.Members = append(wire.Members, d.Members...)
			wire.MeanDegree = append(wire.MeanDegree, d.MeanDegree)
			wire.Density = append(wire.Density, d.Density)
		}
	}
	wire = c.Bcast(0, wire).(wireSubgraphs)
	if rank != 0 {
		off := 0
		for i, sz := range wire.Sizes {
			subs = append(subs, DenseSubgraph{
				Members:    append([]int32(nil), wire.Members[off:off+int(sz)]...),
				MeanDegree: wire.MeanDegree[i],
				Density:    wire.Density[i],
			})
			off += int(sz)
		}
	}
	return subs, st
}
