package align

// This file holds the predicates' kernels: one Gotoh loop per mode, each
// returning only the integers a verdict reads. Align(a, b, Local) and
// Align(a, b, Fit) compute the same DP through one loop that tests the
// mode in every cell and then build an edit path nobody reads; they stay
// as the kernels' oracle. The kernels compute the same scores and write
// the same trace bytes, with Align's tie-break order (strict > between
// predecessors, a fresh start on ties), so the shared traceback visits
// exactly the cells Align's does and every count agrees. Each charges
// al.Cells the n·m cells Align charges.
//
// What makes them faster than Align: no mode test per cell; the
// predecessor choices are computed without branches (max and 0/1
// flags), so unrelated pairs cost no mispredictions; the three states
// of a column sit side by side in one row, and the previous row's
// diagonal is carried in locals, which keeps the loop in registers; and
// every slice the loop indexes has a length the compiler can prove, so
// the only bounds check left is the substitution-matrix lookup's.

// gotohCell is one DP column's scores in the three Gotoh states.
type gotohCell struct{ m, x, y int32 }

// growCells sizes the counts kernels' two rolling rows to m+1 columns
// and the trace to (n+1)·(m+1) cells.
func (al *Aligner) growCells(n, m int) (prev, cur []gotohCell) {
	if cap(al.c0) < m+1 {
		c := geomCap(m+1, cap(al.c0))
		al.c0, al.c1 = make([]gotohCell, c), make([]gotohCell, c)
	}
	al.growTrace(n, m)
	return al.c0[:m+1], al.c1[:m+1]
}

// bit is 1 for true and 0 for false; the compiler emits it without a
// branch.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// LocalCounts returns CountsOf(al.Align(a, b, Local), len(a), len(b)):
// the Definition-2 counts of the optimal local alignment of a against b,
// without building its edit path.
func (al *Aligner) LocalCounts(a, b []byte) OverlapCounts {
	n, m := len(a), len(b)
	c := OverlapCounts{LongLen: int32(max(n, m))}
	al.Cells += int64(n) * int64(m)
	if n == 0 || m == 0 {
		return c
	}
	prev, cur := al.growCells(n, m)
	open, ext := al.sc.GapOpen, al.sc.GapExtend
	unreachable := gotohCell{negInf, negInf, negInf}
	for j := range prev {
		prev[j] = unreachable
	}
	clear(al.trace[:m+1])

	// The best cell is the first maximum in row-major order, as in
	// Align; a row's maximum is tracked in the loop and located after it.
	best, bestI, bestJ := int32(0), 0, 0 // the empty local alignment scores 0
	for i := 1; i <= n; i++ {
		row := &al.sc.Sub[a[i-1]-'A']
		tr := al.trace[i*al.stride : i*al.stride+m+1]
		cur[0], tr[0] = unreachable, 0
		// Column j+1 of each row is index j of these.
		up, next, tr1 := prev[1:][:m], cur[1:][:m], tr[1:][:m]
		d := prev[0]
		mLeft, yLeft := int32(negInf), int32(negInf)
		rowBest := int32(0)
		for j, bc := range b {
			u := up[j]

			// M: the best diagonal predecessor, or a fresh start on ties
			// with 0.
			sx := bit(d.x > d.m)
			bm := max(d.m, d.x)
			sy := bit(d.y > bm)
			bm = max(bm, d.y)
			pm := sx&^sy | sy<<1 | bit(0 >= bm)*stStart
			mv := max(bm, 0) + int32(row[bc-'A'])

			// X: a gap in b, from the cell above.
			bx, vx, vy := u.m-open, u.x-ext, u.y-open
			tx := bit(vx > bx)
			bx = max(bx, vx)
			ty := bit(vy > bx)
			bx = max(bx, vy)
			px := tx&^ty | ty<<1

			// Y: a gap in a, from the cell to the left.
			by, vl := mLeft-open, yLeft-ext
			py := bit(vl > by) * stY
			by = max(by, vl)

			next[j] = gotohCell{mv, bx, by}
			tr1[j] = packTrace(pm, px, py)
			rowBest = max(rowBest, mv)
			d, mLeft, yLeft = u, mv, by
		}
		if rowBest > best {
			best, bestI = rowBest, i
			for j := range next {
				if next[j].m == rowBest {
					bestJ = j + 1
					break
				}
			}
		}
		prev, cur = cur, prev
	}
	if best <= 0 {
		return c // empty alignment
	}
	pc := al.countPath(a, b, bestI, bestJ, stM)
	c.Positives, c.Cols = int32(pc.positives), int32(pc.cols)
	if m > n {
		c.Span = int32(bestJ - pc.startJ)
	} else {
		c.Span = int32(bestI - pc.startI)
	}
	return c
}

// fitCounts returns the three numbers Contained reads from
// al.Align(a, b, Fit): its identical columns, its columns, and the
// length of a's aligned range, EndA − StartA.
func (al *Aligner) fitCounts(a, b []byte) (matches, cols, coveredA int) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, 0, 0 // Align's empty fit alignment, which charges no cells
	}
	al.Cells += int64(n) * int64(m)
	prev, cur := al.growCells(n, m)
	open, ext := al.sc.GapOpen, al.sc.GapExtend
	clear(al.trace[:m+1])

	// Row 1, peeled: row 0 is unreachable and every cell of row 1 may
	// start fresh, so M starts on the diagonal and X opens a gap anywhere
	// in b. Column 0's X is the alignment's leading gap in b.
	row := &al.sc.Sub[a[0]-'A']
	tr := al.trace[al.stride : al.stride+m+1]
	prev[0] = gotohCell{negInf, -open, negInf}
	tr[0] = packTrace(0, stStart, 0)
	first, tr1 := prev[1:][:m], tr[1:][:m]
	mLeft, yLeft := int32(negInf), int32(negInf)
	for j, bc := range b {
		mv := int32(row[bc-'A'])
		by, vl := mLeft-open, yLeft-ext
		py := bit(vl > by) * stY
		by = max(by, vl)
		first[j] = gotohCell{mv, -open, by}
		tr1[j] = packTrace(stStart, stStart, py)
		mLeft, yLeft = mv, by
	}

	for i := 2; i <= n; i++ {
		row := &al.sc.Sub[a[i-1]-'A']
		tr := al.trace[i*al.stride : i*al.stride+m+1]
		cur[0] = gotohCell{negInf, prev[0].x - ext, negInf}
		tr[0] = packTrace(0, stX, 0)
		up, next, tr1 := prev[1:][:m], cur[1:][:m], tr[1:][:m]
		d := prev[0]
		mLeft, yLeft := int32(negInf), int32(negInf)
		for j, bc := range b {
			u := up[j]

			sx := bit(d.x > d.m)
			bm := max(d.m, d.x)
			sy := bit(d.y > bm)
			bm = max(bm, d.y)
			pm := sx&^sy | sy<<1
			mv := bm + int32(row[bc-'A'])

			bx, vx, vy := u.m-open, u.x-ext, u.y-open
			tx := bit(vx > bx)
			bx = max(bx, vx)
			ty := bit(vy > bx)
			bx = max(bx, vy)
			px := tx&^ty | ty<<1

			by, vl := mLeft-open, yLeft-ext
			py := bit(vl > by) * stY
			by = max(by, vl)

			next[j] = gotohCell{mv, bx, by}
			tr1[j] = packTrace(pm, px, py)
			d, mLeft, yLeft = u, mv, by
		}
		prev, cur = cur, prev
	}

	// The alignment ends in row n, in M or X, at the first best cell,
	// M before X within a column.
	best, bestJ, bestState := int32(negInf), 0, stM
	for j, c := range prev {
		if c.m > best {
			best, bestJ, bestState = c.m, j, stM
		}
		if c.x > best {
			best, bestJ, bestState = c.x, j, stX
		}
	}
	pc := al.countPath(a, b, n, bestJ, bestState)
	return pc.matches, pc.cols, n - pc.startI
}

// pathCounts are the column counts of one traced alignment and the cell
// it starts from.
type pathCounts struct {
	cols, matches, positives int
	startI, startJ           int
}

// countPath walks the trace back from (i, j, state) to the alignment's
// fresh start, as Align's traceback does, counting columns instead of
// building the edit path.
func (al *Aligner) countPath(a, b []byte, i, j, state int) pathCounts {
	var pc pathCounts
	for state != stStart {
		t := al.trace[i*al.stride+j]
		pc.cols++
		switch state {
		case stM:
			if a[i-1] == b[j-1] {
				pc.matches++
			}
			if al.sc.Score(a[i-1], b[j-1]) > 0 {
				pc.positives++
			}
			i--
			j--
			state = int(t & 3)
		case stX:
			i--
			state = int(t >> 2 & 3)
		case stY:
			j--
			state = int(t >> 4 & 3)
		}
	}
	pc.startI, pc.startJ = i, j
	return pc
}
