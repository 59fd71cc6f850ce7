package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	u := New(4)
	if u.Sets() != 4 {
		t.Fatalf("Sets=%d", u.Sets())
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
