// Package unionfind implements the classic disjoint-set (union–find) data
// structure with union by rank and path compression, giving near-constant
// amortized Find and Union (Tarjan, JACM 1975).
//
// It backs two parts of the pipeline: the PaCE master's incremental
// clustering during connected-component detection, and the final
// connected-component enumeration of the Shingle algorithm.
package unionfind

// UF is a disjoint-set forest over the elements 0..n-1.
// The zero value is not usable; call New.
type UF struct {
	parent []int32
	rank   []int8
	sets   int
}

// New returns a union–find structure with n singleton sets.
func New(n int) *UF {
	u := &UF{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Find returns the representative of x's set, compressing the path.
func (u *UF) Find(x int) int {
	root := int32(x)
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression: point everything on the walk at the root.
	for int32(x) != root {
		next := u.parent[x]
		u.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (u *UF) Union(x, y int) bool {
	rx, ry := int32(u.Find(x)), int32(u.Find(y))
	if rx == ry {
		return false
	}
	switch {
	case u.rank[rx] < u.rank[ry]:
		rx, ry = ry, rx
	case u.rank[rx] == u.rank[ry]:
		u.rank[rx]++
	}
	u.parent[ry] = rx
	u.sets--
	return true
}

// Clone returns an independent deep copy of the structure. The copy is
// taken without path compression (no Find calls), so concurrent Clones
// of a quiescent UF are safe; mutations of the clone never touch the
// original. This is the snapshot primitive behind incremental epochs:
// each epoch merges new pairs into a clone of the committed state, so
// an aborted epoch leaves the published clustering untouched.
func (u *UF) Clone() *UF {
	c := &UF{
		parent: make([]int32, len(u.parent)),
		rank:   make([]int8, len(u.rank)),
		sets:   u.sets,
	}
	copy(c.parent, u.parent)
	copy(c.rank, u.rank)
	return c
}

// Extend grows the structure to n elements, adding n-Len() fresh
// singleton sets at the end. Extending to n ≤ Len() is a no-op. New
// epochs use this to widen a cloned prior union–find over the sequences
// that arrived since it was committed.
func (u *UF) Extend(n int) {
	for i := len(u.parent); i < n; i++ {
		u.parent = append(u.parent, int32(i))
		u.rank = append(u.rank, 0)
		u.sets++
	}
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }
