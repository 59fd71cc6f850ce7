// Package minhash implements the min-wise independent permutation
// machinery (Broder et al., JCSS 2000) that the Shingle algorithm uses to
// sample (s, c)-shingle sets from adjacency lists.
//
// A permutation is approximated by a member of the 2-universal hash family
// h(x) = (a·x + b) mod p over the Mersenne prime p = 2^61 − 1: for each of
// the c permutations, an element set is "permuted" by hashing every element
// and taking the s smallest hash values. Two vertices whose out-link sets
// overlap substantially then share a shingle with high probability.
package minhash

import (
	"math/bits"
	"math/rand"
)

// MersennePrime61 is the modulus of the hash family.
const MersennePrime61 = (1 << 61) - 1

// Perm is one pseudo-random permutation h(x) = (a·x + b) mod p.
type Perm struct {
	A, B uint64
}

// Apply evaluates the permutation at x. Multiplication is carried out in
// 128 bits (bits.Mul64) so the result is exact mod 2^61−1.
func (pm Perm) Apply(x uint64) uint64 {
	return addMod(mulMod(pm.A, mod61(x)), pm.B%MersennePrime61)
}

// mulMod returns (a*b) mod 2^61-1 for a, b < 2^61.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// 2^64 ≡ 8 (mod 2^61−1), and hi < 2^58 so hi*8 fits in 61 bits.
	return addMod(mod61(hi<<3), mod61(lo))
}

func mod61(x uint64) uint64 {
	x = (x >> 61) + (x & MersennePrime61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// Family is a set of c independent permutations drawn from a seeded PRNG,
// so that every rank in a distributed run generates the identical family.
type Family struct {
	Perms []Perm
}

// NewFamily returns c permutations seeded deterministically.
func NewFamily(c int, seed int64) *Family {
	rng := rand.New(rand.NewSource(seed))
	f := &Family{Perms: make([]Perm, c)}
	for i := range f.Perms {
		// a must be nonzero for the map to be a bijection-like spread.
		a := uint64(rng.Int63n(MersennePrime61-1)) + 1
		b := uint64(rng.Int63n(MersennePrime61))
		f.Perms[i] = Perm{A: a, B: b}
	}
	return f
}

// Shingle computes the s minimum elements of the permutation's image of
// elems, returning them sorted ascending (s ≥ 1). If len(elems) < s the
// whole image is returned (sorted). The scratch slice is reused if large
// enough, in which case the call does not allocate.
func (pm Perm) Shingle(elems []uint64, s int, scratch []uint64) []uint64 {
	if len(elems) == 0 {
		return scratch[:0]
	}
	if s > len(elems) {
		s = len(elems)
	}
	if cap(scratch) < s {
		scratch = make([]uint64, s)
	}
	buf := scratch[:s]
	a, b := pm.A, pm.B%MersennePrime61
	// s is tiny (≈5): an insertion into a sorted s-slot buffer beats a
	// heap. The first s elements fill the buffer, the rest must beat
	// its maximum to get in.
	for n, e := range elems[:s] {
		insertSorted(buf, n, addMod(mulMod(a, mod61(e)), b))
	}
	for _, e := range elems[s:] {
		if h := addMod(mulMod(a, mod61(e)), b); h < buf[s-1] {
			insertSorted(buf, s-1, h)
		}
	}
	return buf
}

// insertSorted places h into the ascending buf[:n+1], whose first n slots
// are filled; the value in slot n, if any, is dropped.
func insertSorted(buf []uint64, n int, h uint64) {
	for ; n > 0 && buf[n-1] > h; n-- {
		buf[n] = buf[n-1]
	}
	buf[n] = h
}

// HashTuple collapses a sorted shingle tuple into a single 64-bit value
// (FNV-1a over the little-endian byte representation), which is how
// shingles are stored and compared downstream. The values are part of
// the output contract: their order fixes first-level shingle indices.
func HashTuple(tuple []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range tuple {
		h = (h ^ (v & 0xff)) * prime64
		h = (h ^ (v >> 8 & 0xff)) * prime64
		h = (h ^ (v >> 16 & 0xff)) * prime64
		h = (h ^ (v >> 24 & 0xff)) * prime64
		h = (h ^ (v >> 32 & 0xff)) * prime64
		h = (h ^ (v >> 40 & 0xff)) * prime64
		h = (h ^ (v >> 48 & 0xff)) * prime64
		h = (h ^ (v >> 56)) * prime64
	}
	return h
}
