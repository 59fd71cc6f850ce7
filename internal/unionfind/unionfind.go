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

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }
