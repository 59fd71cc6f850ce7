// Package seq provides the fundamental sequence types used throughout
// profam: an amino-acid alphabet, the Sequence record, and sets of
// sequences with stable integer identifiers.
//
// All downstream components (suffix tree, aligners, clustering) operate on
// byte slices over the alphabet defined here, so this package is the single
// place where residue encoding decisions live.
package seq

import (
	"fmt"
	"strings"
)

// The 20 standard amino acids plus the ambiguity codes B, Z, X and the
// rare residues U (selenocysteine) and O (pyrrolysine). The terminator
// byte is reserved for suffix-tree sentinels and never appears inside a
// sequence.
const (
	// Residues is the canonical ordering of accepted residue letters.
	Residues = "ACDEFGHIKLMNPQRSTVWYBZXUO"

	// AlphabetSize is the number of distinct residue codes (not counting
	// the terminator).
	AlphabetSize = len(Residues)

	// Terminator is the sentinel byte used by the generalized suffix tree
	// to separate sequences. It compares lower than every residue.
	Terminator byte = 0
)

// codeOf maps an ASCII letter (upper or lower case) to its residue code in
// [1, AlphabetSize], or 0 if the letter is not a valid residue.
var codeOf [256]byte

// letterOf is the inverse of codeOf for valid codes.
var letterOf [AlphabetSize + 1]byte

func init() {
	for i := 0; i < len(Residues); i++ {
		c := Residues[i]
		codeOf[c] = byte(i + 1)
		codeOf[c|0x20] = byte(i + 1) // lower case
		letterOf[i+1] = c
	}
}

// Code returns the residue code of letter r in [1, AlphabetSize], or 0 if
// r is not a valid amino-acid letter.
func Code(r byte) byte { return codeOf[r] }

// Letter returns the upper-case ASCII letter for residue code c.
// It panics if c is not a valid code.
func Letter(c byte) byte {
	if c == 0 || int(c) > AlphabetSize {
		panic(fmt.Sprintf("seq: invalid residue code %d", c))
	}
	return letterOf[c]
}

// Valid reports whether every byte of s is a valid residue letter.
func Valid(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if codeOf[s[i]] == 0 {
			return false
		}
	}
	return true
}

// Clean returns s upper-cased with every invalid residue letter replaced
// by 'X'. It is used when ingesting FASTA records from the wild.
func Clean(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := codeOf[s[i]]
		if c == 0 {
			b.WriteByte('X')
		} else {
			b.WriteByte(letterOf[c])
		}
	}
	return b.String()
}

// Sequence is a single amino-acid sequence with a stable identifier.
// ID is the index of the sequence within its Set and is assigned by the
// Set, not by callers.
type Sequence struct {
	ID   int    // index within the owning Set
	Name string // FASTA header (without '>')
	Res  []byte // residues as ASCII letters (upper case)
}

// Len returns the number of residues.
func (s *Sequence) Len() int { return len(s.Res) }

// String renders the sequence as ">Name\nRES...".
func (s *Sequence) String() string {
	return fmt.Sprintf(">%s\n%s", s.Name, string(s.Res))
}

// Set is an ordered collection of sequences with IDs 0..N-1.
type Set struct {
	Seqs []*Sequence
}

// NewSet returns an empty sequence set.
func NewSet() *Set { return &Set{} }

// UnnamedName is the name of an unnamed sequence with the given ID: its
// position in the corpus, "seq<id>".
func UnnamedName(id int) string { return fmt.Sprintf("seq%d", id) }

// Add appends a sequence with the given name and residue string, assigning
// the next free ID; an empty name becomes UnnamedName(ID). The residue
// string must be valid (see Valid); invalid input is rejected with an
// error so that parse errors surface early.
func (t *Set) Add(name, residues string) (*Sequence, error) {
	if name == "" {
		name = UnnamedName(len(t.Seqs))
	}
	if !Valid(residues) {
		return nil, fmt.Errorf("seq: sequence %q contains invalid residues or is empty", name)
	}
	s := &Sequence{ID: len(t.Seqs), Name: name, Res: []byte(strings.ToUpper(residues))}
	t.Seqs = append(t.Seqs, s)
	return s, nil
}

// MustAdd is Add for programmatic callers with known-good input.
func (t *Set) MustAdd(name, residues string) *Sequence {
	s, err := t.Add(name, residues)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of sequences in the set.
func (t *Set) Len() int { return len(t.Seqs) }

// Get returns the sequence with the given ID.
func (t *Set) Get(id int) *Sequence { return t.Seqs[id] }

// TotalResidues returns the summed length of all sequences.
func (t *Set) TotalResidues() int {
	n := 0
	for _, s := range t.Seqs {
		n += len(s.Res)
	}
	return n
}

// MeanLength returns the average sequence length, or 0 for an empty set.
func (t *Set) MeanLength() float64 {
	if len(t.Seqs) == 0 {
		return 0
	}
	return float64(t.TotalResidues()) / float64(len(t.Seqs))
}

// Subset returns a new Set containing copies of the sequences whose IDs
// are listed in ids, renumbered 0..len(ids)-1. The OrigID mapping is
// returned alongside: orig[i] is the ID in t of the i-th sequence of the
// subset.
func (t *Set) Subset(ids []int) (*Set, []int) {
	sub := NewSet()
	orig := make([]int, 0, len(ids))
	for _, id := range ids {
		src := t.Seqs[id]
		cp := &Sequence{ID: len(sub.Seqs), Name: src.Name, Res: src.Res}
		sub.Seqs = append(sub.Seqs, cp)
		orig = append(orig, id)
	}
	return sub, orig
}
