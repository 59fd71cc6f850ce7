package align

import (
	"bytes"
	"fmt"
	"math"
)

// Mode selects the alignment flavour computed by Aligner.Align.
type Mode int

const (
	// Global aligns both sequences end to end (Needleman–Wunsch).
	Global Mode = iota
	// Local finds the best-scoring pair of substrings (Smith–Waterman).
	Local
	// Fit aligns all of sequence A against a substring of sequence B,
	// with B's unaligned prefix and suffix free of charge. This is the
	// natural shape for containment testing.
	Fit
)

func (m Mode) String() string {
	switch m {
	case Global:
		return "global"
	case Local:
		return "local"
	case Fit:
		return "fit"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// EditOp is one run of identical alignment operations.
// Op is 'M' (residue–residue column), 'I' (gap in B: consumes A), or
// 'D' (gap in A: consumes B).
type EditOp struct {
	Op  byte
	Len int
}

// Result describes one computed alignment.
type Result struct {
	Mode  Mode
	Score int32

	// Half-open aligned ranges within each input.
	StartA, EndA int
	StartB, EndB int

	Cols      int // total alignment columns
	Matches   int // identical residue columns
	Positives int // columns with positive substitution score (incl. matches)
	Gaps      int // gap columns ('I' + 'D')

	Ops []EditOp // alignment path, in A/B order
}

// Identity returns the fraction of alignment columns that are identical
// residues, in [0,1]. Zero-column alignments yield 0.
func (r *Result) Identity() float64 {
	if r.Cols == 0 {
		return 0
	}
	return float64(r.Matches) / float64(r.Cols)
}

// Similarity returns the fraction of alignment columns with a positive
// substitution score (the usual BLAST "positives" notion), in [0,1].
func (r *Result) Similarity() float64 {
	if r.Cols == 0 {
		return 0
	}
	return float64(r.Positives) / float64(r.Cols)
}

// Format renders the alignment as a three-line block (A row, match row,
// B row) for human consumption.
func (r *Result) Format(a, b []byte) string {
	var la, mid, lb bytes.Buffer
	i, j := r.StartA, r.StartB
	for _, op := range r.Ops {
		for k := 0; k < op.Len; k++ {
			switch op.Op {
			case 'M':
				la.WriteByte(a[i])
				lb.WriteByte(b[j])
				if a[i] == b[j] {
					mid.WriteByte('|')
				} else {
					mid.WriteByte(' ')
				}
				i++
				j++
			case 'I':
				la.WriteByte(a[i])
				lb.WriteByte('-')
				mid.WriteByte(' ')
				i++
			case 'D':
				la.WriteByte('-')
				lb.WriteByte(b[j])
				mid.WriteByte(' ')
				j++
			}
		}
	}
	return fmt.Sprintf("A[%d:%d] %s\n        %s\nB[%d:%d] %s",
		r.StartA, r.EndA, la.String(), mid.String(), r.StartB, r.EndB, lb.String())
}

const negInf = int32(math.MinInt32 / 4)

// DP states.
const (
	stM = iota // residue–residue
	stX        // gap in B (consumes A; vertical)
	stY        // gap in A (consumes B; horizontal)
	stStart
)

// trace byte layout: bits 0-1 predecessor of M, 2-3 of X, 4-5 of Y.
func packTrace(pm, px, py uint8) byte { return pm | px<<2 | py<<4 }

// Aligner computes alignments, reusing internal scratch buffers across
// calls. It is not safe for concurrent use; create one per goroutine.
type Aligner struct {
	sc *Scoring

	// two rolling rows of scores per state
	m0, m1, x0, x1, y0, y1 []int32
	trace                  []byte // (lenA+1) * (lenB+1); allocated lazily by Align only
	stride                 int

	// Cells counts DP cells computed across the Aligner's lifetime; the
	// pipeline uses it as the machine-independent work measure that the
	// virtual-time scheduler charges for.
	Cells int64
}

// NewAligner returns an Aligner using the given scoring scheme
// (DefaultScoring() if nil).
func NewAligner(sc *Scoring) *Aligner {
	if sc == nil {
		sc = DefaultScoring()
	}
	return &Aligner{sc: sc}
}

// Scoring returns the scheme the aligner was built with.
func (al *Aligner) Scoring() *Scoring { return al.sc }

// geomCap grows capacities geometrically (1.5×) so a stream of
// slightly-longer inputs costs O(log) reallocations instead of one per
// call.
func geomCap(need, have int) int {
	if g := have + have/2; g > need {
		return g
	}
	return need
}

// growRows sizes only the six DP row buffers. Score-only kernels use it
// so a stream of rejected pairs never allocates the O(n·m) trace matrix.
func (al *Aligner) growRows(m int) {
	if cap(al.m0) < m+1 {
		c := geomCap(m+1, cap(al.m0))
		al.m0 = make([]int32, c)
		al.m1 = make([]int32, c)
		al.x0 = make([]int32, c)
		al.x1 = make([]int32, c)
		al.y0 = make([]int32, c)
		al.y1 = make([]int32, c)
	}
	al.m0 = al.m0[:m+1]
	al.m1 = al.m1[:m+1]
	al.x0 = al.x0[:m+1]
	al.x1 = al.x1[:m+1]
	al.y0 = al.y0[:m+1]
	al.y1 = al.y1[:m+1]
}

func (al *Aligner) grow(n, m int) {
	al.growRows(m)
	need := (n + 1) * (m + 1)
	if cap(al.trace) < need {
		al.trace = make([]byte, geomCap(need, cap(al.trace)))
	}
	al.trace = al.trace[:need]
	al.stride = m + 1
}

// Align computes the alignment of a and b under the given mode.
// Both sequences are ASCII upper-case residue strings; either may be
// empty, yielding an empty or all-gap alignment depending on mode.
func (al *Aligner) Align(a, b []byte, mode Mode) Result {
	n, m := len(a), len(b)
	if mode == Fit && (n == 0 || m == 0) {
		// Fitting an empty sequence (or fitting into one) is the empty
		// alignment; avoid the degenerate DP.
		return Result{Mode: mode}
	}
	al.grow(n, m)
	al.Cells += int64(n) * int64(m)
	open, ext := al.sc.GapOpen, al.sc.GapExtend

	mPrev, mCur := al.m0, al.m1
	xPrev, xCur := al.x0, al.x1
	yPrev, yCur := al.y0, al.y1

	// Row 0 initialisation.
	for j := 0; j <= m; j++ {
		mPrev[j] = negInf
		xPrev[j] = negInf
		yPrev[j] = negInf
		al.trace[j] = 0
	}
	switch mode {
	case Global:
		mPrev[0] = 0
		for j := 1; j <= m; j++ {
			yPrev[j] = -(open + int32(j-1)*ext)
			py := uint8(stY)
			if j == 1 {
				py = stM
			}
			al.trace[j] = packTrace(0, 0, py)
		}
	case Local, Fit:
		// Fresh starts handled in the recurrence; borders stay -inf.
	}

	bestScore := negInf
	bestI, bestJ, bestState := 0, 0, stM
	if mode == Local {
		bestScore = 0 // empty local alignment always available
	}

	for i := 1; i <= n; i++ {
		ca := a[i-1]
		row := al.sc.Sub[ca-'A']
		tr := al.trace[i*al.stride:]

		// Column 0.
		mCur[0] = negInf
		yCur[0] = negInf
		switch mode {
		case Global:
			xCur[0] = -(open + int32(i-1)*ext)
			px := uint8(stX)
			if i == 1 {
				px = stM
			}
			tr[0] = packTrace(0, px, 0)
		case Fit:
			// A fit alignment may begin with gap-in-B columns (the
			// leading residues of A aligned to nothing inside the
			// chosen substring of B).
			if i == 1 {
				xCur[0] = -open
				tr[0] = packTrace(0, stStart, 0)
			} else {
				xCur[0] = xPrev[0] - ext
				tr[0] = packTrace(0, stX, 0)
			}
		default:
			xCur[0] = negInf
			tr[0] = 0
		}

		for j := 1; j <= m; j++ {
			// M state: diagonal predecessors, optional fresh start.
			s := int32(row[b[j-1]-'A'])
			bm, pm := mPrev[j-1], uint8(stM)
			if xPrev[j-1] > bm {
				bm, pm = xPrev[j-1], stX
			}
			if yPrev[j-1] > bm {
				bm, pm = yPrev[j-1], stY
			}
			freshOK := mode == Local || (mode == Fit && i == 1) ||
				(mode == Global && i == 1 && j == 1)
			// Prefer a fresh start on ties so local/fit tracebacks do not
			// wander through zero-score prefixes.
			if freshOK && 0 >= bm {
				bm, pm = 0, stStart
			}
			mv := bm + s
			mCur[j] = mv

			// X state: vertical (gap in B).
			bx, px := mPrev[j]-open, uint8(stM)
			if v := xPrev[j] - ext; v > bx {
				bx, px = v, stX
			}
			if v := yPrev[j] - open; v > bx {
				bx, px = v, stY
			}
			if mode == Fit && i == 1 && -open > bx {
				// Fresh gap-opening start anywhere in B.
				bx, px = -open, stStart
			}
			xCur[j] = bx

			// Y state: horizontal (gap in A).
			by, py := mCur[j-1]-open, uint8(stM)
			if v := yCur[j-1] - ext; v > by {
				by, py = v, stY
			}
			yCur[j] = by

			tr[j] = packTrace(pm, px, py)

			if mode == Local && mv > bestScore {
				bestScore, bestI, bestJ, bestState = mv, i, j, stM
			}
		}

		if mode == Fit && i == n {
			for j := 0; j <= m; j++ {
				if mCur[j] > bestScore {
					bestScore, bestI, bestJ, bestState = mCur[j], n, j, stM
				}
				if xCur[j] > bestScore {
					bestScore, bestI, bestJ, bestState = xCur[j], n, j, stX
				}
			}
		}
		mPrev, mCur = mCur, mPrev
		xPrev, xCur = xCur, xPrev
		yPrev, yCur = yCur, yPrev
	}

	switch mode {
	case Global:
		// After the loop the final row lives in the "Prev" slices.
		bestScore, bestI, bestJ, bestState = mPrev[m], n, m, stM
		if xPrev[m] > bestScore {
			bestScore, bestState = xPrev[m], stX
		}
		if yPrev[m] > bestScore {
			bestScore, bestState = yPrev[m], stY
		}
	}

	res := Result{Mode: mode, Score: bestScore}
	if mode == Local && bestScore <= 0 {
		return res // empty alignment
	}
	al.traceback(a, b, bestI, bestJ, bestState, &res)
	return res
}

// traceback reconstructs the path ending at (i, j, state).
func (al *Aligner) traceback(a, b []byte, i, j, state int, res *Result) {
	res.EndA, res.EndB = i, j
	var ops []EditOp
	push := func(op byte) {
		if len(ops) > 0 && ops[len(ops)-1].Op == op {
			ops[len(ops)-1].Len++
		} else {
			ops = append(ops, EditOp{Op: op, Len: 1})
		}
	}
	for state != stStart {
		if state == stM && i == 0 && j == 0 {
			break // global-mode origin
		}
		t := al.trace[i*al.stride+j]
		switch state {
		case stM:
			push('M')
			res.Cols++
			if a[i-1] == b[j-1] {
				res.Matches++
			}
			if al.sc.Score(a[i-1], b[j-1]) > 0 {
				res.Positives++
			}
			i--
			j--
			state = int(t & 3)
		case stX:
			push('I')
			res.Cols++
			res.Gaps++
			i--
			state = int(t >> 2 & 3)
		case stY:
			push('D')
			res.Cols++
			res.Gaps++
			j--
			state = int(t >> 4 & 3)
		}
	}
	res.StartA, res.StartB = i, j
	// Reverse ops into A→B order.
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	res.Ops = ops
}

// LocalScore computes only the Smith–Waterman score of a and b, in O(m)
// memory and without traceback. It is the fast path for benchmarks and
// for filters that do not need coordinates.
func (al *Aligner) LocalScore(a, b []byte) int32 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0
	}
	al.growRows(m)
	al.Cells += int64(n) * int64(m)
	open, ext := al.sc.GapOpen, al.sc.GapExtend
	h, e := al.m0, al.x0 // reuse scratch: h = M row, e = Y (horizontal) carry
	f := al.y0           // f = X (vertical) column carry
	for j := 0; j <= m; j++ {
		h[j], e[j], f[j] = 0, negInf, negInf
	}
	best := int32(0)
	for i := 1; i <= n; i++ {
		row := al.sc.Sub[a[i-1]-'A']
		diag := int32(0) // h[i-1][0]
		for j := 1; j <= m; j++ {
			e[j] = max32(h[j]-open, e[j]-ext)     // gap in B arriving from above
			f[j] = max32(h[j-1]-open, f[j-1]-ext) // gap in A arriving from left; note h[j-1] already updated = current row
			hv := diag + int32(row[b[j-1]-'A'])
			if e[j] > hv {
				hv = e[j]
			}
			if f[j] > hv {
				hv = f[j]
			}
			if hv < 0 {
				hv = 0
			}
			diag = h[j]
			h[j] = hv
			if hv > best {
				best = hv
			}
		}
	}
	return best
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
