package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	u := New(4)
	if u.Sets() != 4 || u.Len() != 4 {
		t.Fatalf("Sets=%d Len=%d", u.Sets(), u.Len())
	}
	for i := 0; i < 4; i++ {
		if u.Find(i) != i {
			t.Errorf("Find(%d) = %d", i, u.Find(i))
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := New(6)
	if !u.Union(0, 1) {
		t.Error("first union returned false")
	}
	if u.Union(1, 0) {
		t.Error("repeated union returned true")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if !u.Same(1, 2) {
		t.Error("1 and 2 should be connected via 0-1, 2-3, 0-3")
	}
	if u.Same(0, 4) {
		t.Error("0 and 4 should be separate")
	}
	if u.Sets() != 3 { // {0,1,2,3}, {4}, {5}
		t.Errorf("Sets = %d, want 3", u.Sets())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	u := New(6)
	u.Union(0, 1)
	u.Union(2, 3)
	c := u.Clone()
	if c.Len() != 6 || c.Sets() != u.Sets() {
		t.Fatalf("clone shape: Len=%d Sets=%d want 6/%d", c.Len(), c.Sets(), u.Sets())
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if c.Same(i, j) != u.Same(i, j) {
				t.Fatalf("clone partition differs at (%d,%d)", i, j)
			}
		}
	}
	// Mutating the clone must not leak back into the original, and vice
	// versa.
	c.Union(0, 5)
	if u.Same(0, 5) {
		t.Error("clone union leaked into original")
	}
	u.Union(1, 3)
	if c.Same(1, 3) {
		t.Error("original union leaked into clone")
	}
}

func TestExtendAddsSingletons(t *testing.T) {
	u := New(3)
	u.Union(0, 2)
	u.Extend(6)
	if u.Len() != 6 {
		t.Fatalf("Len = %d, want 6", u.Len())
	}
	if u.Sets() != 5 { // {0,2}, {1}, {3}, {4}, {5}
		t.Fatalf("Sets = %d, want 5", u.Sets())
	}
	for i := 3; i < 6; i++ {
		if u.Find(i) != i {
			t.Errorf("new element %d not a singleton root", i)
		}
	}
	if !u.Same(0, 2) {
		t.Error("extend destroyed an existing set")
	}
	u.Extend(2) // shrinking request is a no-op
	if u.Len() != 6 {
		t.Errorf("Extend(2) changed Len to %d", u.Len())
	}
}

// Property: union–find agrees with a naive label-propagation clustering on
// random union sequences.
func TestAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		u := New(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for k := 0; k < 3*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			merged := u.Union(a, b)
			if merged != (label[a] != label[b]) {
				return false
			}
			if label[a] != label[b] {
				relabel(label[a], label[b])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if u.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		// Set count must match distinct labels.
		distinct := map[int]bool{}
		for _, l := range label {
			distinct[l] = true
		}
		return u.Sets() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := New(n)
		for _, p := range pairs {
			u.Union(p[0], p[1])
		}
	}
}
