package minhash

import (
	"encoding/binary"
	"hash/fnv"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestMulModAgainstBigInt checks the 128-bit modular multiply against
// math/big on random operands.
func TestMulModAgainstBigInt(t *testing.T) {
	p := big.NewInt(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		want := new(big.Int).Mul(big.NewInt(0).SetUint64(a), big.NewInt(0).SetUint64(b))
		want.Mod(want, p)
		return mulMod(a, b) == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestApplyDeterministicAndBounded(t *testing.T) {
	fam := NewFamily(8, 12345)
	fam2 := NewFamily(8, 12345)
	for i, pm := range fam.Perms {
		if pm != fam2.Perms[i] {
			t.Fatal("families with same seed differ")
		}
		for x := uint64(0); x < 100; x++ {
			v := pm.Apply(x)
			if v >= MersennePrime61 {
				t.Fatalf("Apply out of range: %d", v)
			}
			if v != pm.Apply(x) {
				t.Fatal("Apply not deterministic")
			}
		}
	}
}

func TestPermInjectiveOnSmallDomain(t *testing.T) {
	// h(x) = ax+b mod p with a != 0 is a bijection on [0, p); on a small
	// domain there must be no collisions at all.
	fam := NewFamily(4, 7)
	for _, pm := range fam.Perms {
		seen := map[uint64]bool{}
		for x := uint64(0); x < 5000; x++ {
			v := pm.Apply(x)
			if seen[v] {
				t.Fatalf("collision at %d", x)
			}
			seen[v] = true
		}
	}
}

// TestShingleAgainstBruteForce validates that Shingle really returns the s
// smallest permuted values, sorted — including when elements repeat (a
// repeated element keeps its repeated image) and when s reaches or
// exceeds the number of elements.
func TestShingleAgainstBruteForce(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		if len(raw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		pm := NewFamily(1, seed).Perms[0]
		elems := append([]uint64(nil), raw...)
		if rng.Intn(2) == 0 { // squeeze into a tiny universe: many duplicates
			for i := range elems {
				elems[i] %= 4
			}
		}
		s := 1 + rng.Intn(6)
		if rng.Intn(3) == 0 { // s at, or past, the end
			s = len(elems) + rng.Intn(3)
		}
		got := pm.Shingle(elems, s, nil)

		all := make([]uint64, len(elems))
		for i, e := range elems {
			all[i] = pm.Apply(e)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		want := all
		if s < len(all) {
			want = all[:s]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// TestShingleDoesNotAllocate pins the kernel's contract with its callers:
// given a scratch buffer of capacity s it runs in place.
func TestShingleDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pm := NewFamily(1, 11).Perms[0]
	scratch := make([]uint64, 5)
	for _, n := range []int{1, 3, 5, 64, 1000} {
		elems := make([]uint64, n)
		for i := range elems {
			elems[i] = rng.Uint64() % 50
		}
		var sink uint64
		if a := testing.AllocsPerRun(50, func() { sink += HashTuple(pm.Shingle(elems, 5, scratch)) }); a != 0 {
			t.Errorf("Shingle over %d elements allocates %.0f times per call", n, a)
		}
		_ = sink
	}
}

// TestHashTupleIsFNV1a pins the tuple hash to the standard library's
// FNV-1a over the little-endian bytes: first-level shingle indices, and
// through them union–find roots, follow the order of these values.
func TestHashTupleIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n < 8; n++ {
		tuple := make([]uint64, n)
		h := fnv.New64a()
		for i := range tuple {
			tuple[i] = rng.Uint64()
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], tuple[i])
			h.Write(b[:])
		}
		if got, want := HashTuple(tuple), h.Sum64(); got != want {
			t.Errorf("HashTuple(%v) = %#x, FNV-1a gives %#x", tuple, got, want)
		}
	}
}

func TestShingleEmptyAndSmall(t *testing.T) {
	pm := NewFamily(1, 1).Perms[0]
	if got := pm.Shingle(nil, 3, nil); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
	got := pm.Shingle([]uint64{42}, 5, nil)
	if len(got) != 1 || got[0] != pm.Apply(42) {
		t.Errorf("single-element shingle wrong: %v", got)
	}
}

// TestSharedShingleProbability: vertices with near-identical out-link sets
// must share at least one (s, c)-shingle nearly always, while unrelated
// sets should rarely collide. This is the property the Shingle algorithm
// rests on.
func TestSharedShingleProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fam := NewFamily(20, 5) // c = 20 permutations
	const s = 3

	shingleSet := func(elems []uint64) map[uint64]bool {
		out := map[uint64]bool{}
		var scratch []uint64
		for _, pm := range fam.Perms {
			scratch = pm.Shingle(elems, s, scratch)
			out[HashTuple(scratch)] = true
		}
		return out
	}
	intersects := func(a, b map[uint64]bool) bool {
		for k := range a {
			if b[k] {
				return true
			}
		}
		return false
	}

	similarHits, unrelatedHits := 0, 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		base := make([]uint64, 40)
		for i := range base {
			base[i] = rng.Uint64() % 10000
		}
		// 90 % overlapping variant.
		variant := append([]uint64(nil), base[:36]...)
		for i := 0; i < 4; i++ {
			variant = append(variant, rng.Uint64()%10000+20000)
		}
		other := make([]uint64, 40)
		for i := range other {
			other[i] = rng.Uint64()%10000 + 50000 // disjoint universe
		}
		sa := shingleSet(base)
		if intersects(sa, shingleSet(variant)) {
			similarHits++
		}
		if intersects(sa, shingleSet(other)) {
			unrelatedHits++
		}
	}
	if similarHits < trials*8/10 {
		t.Errorf("similar sets shared shingles in only %d/%d trials", similarHits, trials)
	}
	if unrelatedHits > trials/10 {
		t.Errorf("unrelated sets shared shingles in %d/%d trials", unrelatedHits, trials)
	}
}

func TestHashTuple(t *testing.T) {
	a := HashTuple([]uint64{1, 2, 3})
	if a != HashTuple([]uint64{1, 2, 3}) {
		t.Error("HashTuple not deterministic")
	}
	if a == HashTuple([]uint64{3, 2, 1}) {
		t.Error("HashTuple ignores order (collision on permuted tuple)")
	}
	if HashTuple(nil) == a {
		t.Error("empty tuple collides")
	}
}

func BenchmarkShingle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	elems := make([]uint64, 200)
	for i := range elems {
		elems[i] = rng.Uint64()
	}
	fam := NewFamily(100, 3)
	var scratch []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pm := range fam.Perms {
			scratch = pm.Shingle(elems, 5, scratch)
		}
	}
}
