package core

// This file implements the breakpoint-compressed representation of
// monotone DP rows and the row algebra the solvers' merge kernels run
// on: encode/decode, pointwise minimum, min-plus convolution, and the
// budget-axis fold step that the MinCost and QoS merges share.
//
// The monotone-row contract. A DP row v(0..n-1) is monotone when
//
//  1. its infeasible cells (cells equal to the solver's sentinel:
//     invalid for MinCostSolver, pUnreached for PowerDP, qInf for
//     QoSSolver) form a prefix of the row, and
//  2. its feasible values are non-increasing left to right.
//
// Every row produced by the three dynamic programs satisfies the
// contract along its resource axis (new servers, mode-M servers,
// replicas): spending one more unit of the resource can always be done
// by equipping the merged child, which never increases the escaping
// load. The contract is nevertheless *verified*, not assumed: encode
// returns ok=false on any violation and the caller falls back to the
// dense kernel, so compression is exact unconditionally — the proof
// only predicts that the fallback never triggers.
//
// Under the contract a width-n row with values in {0..W} carries at
// most W+2 distinct states (W+1 values plus the infeasible prefix), so
// it is represented losslessly by its breakpoints: runs with strictly
// increasing starts and strictly decreasing values, where run p covers
// the cells [start_p, start_{p+1}) and cells before the first start are
// infeasible. All row operations below preserve the invariant by
// construction, which is what makes folds over compressed rows exact
// without re-verification.

import (
	"fmt"
	"math"
)

// bpRun is one breakpoint of a compressed monotone row: the row holds
// val from cell start up to the next run's start (or the row end).
type bpRun struct {
	start int32
	val   int64
}

// bpInfVal is the internal +inf of the row algebra. Strictly larger
// than any encodable value (encode rejects values >= bpInfVal) and
// small enough that sums of two values never overflow int64.
const bpInfVal = int64(1) << 62

// minDenseWidth is the row width from which the solvers' merge kernels
// switch from the dense scan to breakpoint compression. Narrow rows
// (leaf-level tables) stay dense, where the plain loop is cheaper than
// encoding; wide rows — the capB- and subtree-bounded tables near the
// top of a mega tree — compress to at most W+2 runs. It is a variable
// so tests can lower it to force compression on small trees (and raise
// it to force the dense path), cross-checking both kernels on the same
// instances.
var minDenseWidth = 64

// encodeRuns compresses a dense row of n cells laid out at the given
// stride (cell r lives at row[r*stride]: 1 for the MinCost and power
// rows, the requirement count for the QoS solver's per-requirement
// columns) whose infeasible sentinel is inval. Returns ok=false — with
// dst truncated arbitrarily — when the row violates the monotone
// contract (an interior infeasible cell or an increasing step), or
// holds a value that cannot be represented without colliding with the
// internal +inf; the caller must then use the dense kernel.
func encodeRuns[T int32 | int](row []T, n, stride int, inval T, dst []bpRun) ([]bpRun, bool) {
	dst = dst[:0]
	i, k := 0, 0
	for i < n && row[k] == inval {
		i, k = i+1, k+stride
	}
	last := bpInfVal
	for ; i < n; i, k = i+1, k+stride {
		x := row[k]
		v := int64(x)
		if x == inval || v >= bpInfVal || v < math.MinInt64/4 || v > last {
			return dst, false
		}
		if v < last {
			dst = append(dst, bpRun{start: int32(i), val: v})
			last = v
		}
	}
	return dst, true
}

// decodeRuns expands runs into a row of n cells at the given stride,
// filling cells before the first run with inval. Exact inverse of
// encodeRuns.
func decodeRuns[T int32 | int](runs []bpRun, row []T, n, stride int, inval T) {
	end := n * stride
	for p := len(runs) - 1; p >= 0; p-- {
		v := T(runs[p].val)
		lo := int(runs[p].start) * stride
		for k := lo; k < end; k += stride {
			row[k] = v
		}
		end = lo
	}
	for k := 0; k < end; k += stride {
		row[k] = inval
	}
}

// firstFeasible returns the index of the first feasible cell of a
// monotone row of n cells at the given stride whose value is at most
// limit (n when there is none). Values only fall past the infeasible
// prefix, so the cells over the limit precede the others.
func firstFeasible[T int32 | int](row []T, n, stride int, inval T, limit int64) int32 {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x := row[mid*stride]; x == inval || int64(x) > limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// valueRun locates the cell interval [cl, cr] of a monotone row at the
// given stride holding exactly value v, searching the feasible region
// [first, last].
func valueRun[T int32 | int](row []T, stride int, first, last int32, v int64) (cl, cr int32, ok bool) {
	at := func(i int32) int64 { return int64(row[int(i)*stride]) }
	lo, hi := first, last+1
	for lo < hi {
		mid := (lo + hi) >> 1
		if at(mid) <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > last || at(lo) != v {
		return 0, 0, false
	}
	cl = lo
	hi = last + 1
	for lo < hi {
		mid := (lo + hi) >> 1
		if at(mid) < v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return cl, lo - 1, true
}

// bpAt returns the row value at cell k, or bpInfVal when k lies in the
// infeasible prefix.
func bpAt(runs []bpRun, k int32) int64 {
	// Binary search for the last run with start <= k.
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if runs[mid].start <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return bpInfVal
	}
	return runs[lo-1].val
}

// envMin writes the pointwise minimum of two monotone rows into dst
// (which must not alias a or b) and returns it. Treating the cells
// before a row's first run as +inf makes the minimum of two monotone
// rows monotone again, so the result is in normal form.
func envMin(a, b, dst []bpRun) []bpRun {
	dst = dst[:0]
	i, j := 0, 0
	curA, curB := bpInfVal, bpInfVal
	last := bpInfVal
	for i < len(a) || j < len(b) {
		var s int32
		switch {
		case j >= len(b) || (i < len(a) && a[i].start <= b[j].start):
			s = a[i].start
		default:
			s = b[j].start
		}
		for i < len(a) && a[i].start == s {
			curA = a[i].val
			i++
		}
		for j < len(b) && b[j].start == s {
			curB = b[j].val
			j++
		}
		m := min(curA, curB)
		if m < last {
			dst = append(dst, bpRun{start: s, val: m})
			last = m
		}
	}
	return dst
}

// bpScratch holds the grow-only temporaries of the compressed merge
// kernels, one per worker. Every buffer follows the arena contract:
// reused across merges, never shrunk, so steady-state solves stay
// allocation-free once grown to the high-water mark.
type bpScratch struct {
	ch         []bpRun   // shifted acc row (PowerDP)
	frag       []bpRun   // per-run candidate fragment
	res, alt   []bpRun   // fold ping-pong buffers
	tmp        []bpRun   // envMin destination for row accumulation
	rows       [][]bpRun // per-output-row accumulated runs (PowerDP)
	modeStarts []int32   // per (child row, mode) staircase starts (PowerDP)
	cols       []int32   // per-column offsets into colRuns
	colRuns    []bpRun   // encoded child columns
}

// fitBpScratch grows every scratch in scs, buffer by buffer, to the
// largest capacity any of them holds, keeping each buffer's contents.
// The single-row buffers trade capacities with one another (the fold
// ping-pong of res and alt, envMinInto's row/spare swap), so they share
// one mark; the multi-row buffers keep one mark each.
func fitBpScratch(scs []bpScratch) {
	if len(scs) < 2 {
		return
	}
	var row, nRows, colRuns, modeStarts, cols int
	for i := range scs {
		sc := &scs[i]
		for _, b := range sc.rowBufs() {
			row = max(row, cap(*b))
		}
		for _, r := range sc.rows {
			row = max(row, cap(r))
		}
		nRows = max(nRows, len(sc.rows))
		colRuns, modeStarts, cols = max(colRuns, cap(sc.colRuns)), max(modeStarts, cap(sc.modeStarts)), max(cols, cap(sc.cols))
	}
	for i := range scs {
		sc := &scs[i]
		for _, b := range sc.rowBufs() {
			growCap(b, row)
		}
		sc.rows = grownKeep(sc.rows, nRows)
		for r := range sc.rows {
			growCap(&sc.rows[r], row)
		}
		growCap(&sc.colRuns, colRuns)
		growCap(&sc.modeStarts, modeStarts)
		growCap(&sc.cols, cols)
	}
}

// rowBufs lists the scratch's single-row run buffers.
func (sc *bpScratch) rowBufs() [5]*[]bpRun {
	return [5]*[]bpRun{&sc.ch, &sc.frag, &sc.res, &sc.alt, &sc.tmp}
}

// growCap raises the capacity of *b to at least n, keeping its length
// and contents.
func growCap[T any](b *[]T, n int) {
	if cap(*b) < n {
		nb := make([]T, len(*b), n)
		copy(nb, *b)
		*b = nb
	}
}

// bpConv is the min-plus kernel of the budget-axis merges: the
// convolution of two monotone rows,
// out[k] = min{a[i]+b[j] : i+j == k, a[i]+b[j] <= maxSum} for
// k <= maxStart, plus, with place, the option of equipping the child
// itself, which absorbs its load entirely — out[k] may also take a[n1]
// for any n1 with a feasible child cell at k-n1-1 (b must then be
// non-empty). maxStart must not exceed the natural reach accN+chN (the
// sum of the dense rows' last indices, plus one with place): a run
// claims its value to the end of the output, which past the reach no
// exact dense split could produce. The result lands in one of sc's fold
// buffers and is valid until the next bpConv call on the same scratch.
//
// The candidate breakpoints (a_i.start+b_j.start, a_i.val+b_j.val)
// form, for each i, a fragment with increasing starts and decreasing
// values; the convolution is the lower envelope of the fragments. The
// envelope equals the dense convolution because consecutive runs cover
// contiguous index windows: the candidate claimed at any cell k in
// range is achievable by some exact split i+j = k with the same or
// smaller value. Cost is O(|a|·(|b|+R)) with R the result size — both
// bounded by the value range, not the row width.
//
// With place, equipping dominates every second-and-later child run
// (same acc value, one extra unit of the resource axis), so each acc
// run contributes at most two breakpoints: the first child run's pair
// and the equip point one cell later. That makes the step linear in
// the run counts — independent of the row widths the dense kernel pays
// for.
func bpConv(a, b []bpRun, maxSum int64, maxStart int32, place bool, sc *bpScratch) []bpRun {
	pairs := b
	if place {
		// Only the pair with the child's first run can matter: a pair
		// using any later child run has value >= a[i].val (child values
		// are non-negative) and start past the equip point, so the
		// equip point dominates it.
		pairs = b[:1]
	}
	res, alt := sc.res[:0], sc.alt[:0]
	for i := range a {
		frag := sc.frag[:0]
		for j := range pairs {
			s := a[i].start + pairs[j].start
			if s > maxStart {
				break // starts only grow with j
			}
			v := a[i].val + pairs[j].val
			if v > maxSum {
				continue // values only shrink with j
			}
			frag = append(frag, bpRun{start: s, val: v})
		}
		// The equip point: value a[i].val from one cell past the
		// child's first feasible cell. Equipping is never cap-checked —
		// the child's load is absorbed, matching the dense kernel.
		if place {
			n := len(frag)
			if s := a[i].start + b[0].start + 1; s <= maxStart && (n == 0 || a[i].val < frag[n-1].val) {
				frag = append(frag, bpRun{start: s, val: a[i].val})
			}
		}
		sc.frag = frag[:0]
		if len(frag) == 0 {
			continue
		}
		res, alt = envMin(res, frag, alt[:0]), res
	}
	sc.res, sc.alt = alt[:0], res // keep capacities live across calls
	return res
}

// bpShift writes a copy of a with every start moved right by delta
// (dropping runs past maxStart) into dst and returns it. This is the
// cross-row staircase of the power merge: equipping the child at a
// lower mode contributes the acc row shifted to the first child cell
// that mode can carry.
func bpShift(a []bpRun, delta, maxStart int32, dst []bpRun) []bpRun {
	dst = dst[:0]
	for i := range a {
		s := a[i].start + delta
		if s > maxStart {
			break
		}
		dst = append(dst, bpRun{start: s, val: a[i].val})
	}
	return dst
}

// foldSnap is the retained snapshot of one compressed fold step: the
// runs of every column of the accumulator before (inRuns) and after
// (outRuns) the merge, column c's at runs[off[c]:off[c+1]]. comp marks
// a step that last ran compressed (a dense step records its decisions
// in its solver's dense table instead). Reconstruction reads the input
// runs, and a partial fold replay restarts from the output runs of the
// step before the first stale one. The power DP's steps embed it with
// one "column" per table row.
type foldSnap struct {
	comp            bool
	inOff, outOff   []int32
	inRuns, outRuns []bpRun
}

func (f *foldSnap) in(c int) []bpRun  { return f.inRuns[f.inOff[c]:f.inOff[c+1]] }
func (f *foldSnap) out(c int) []bpRun { return f.outRuns[f.outOff[c]:f.outOff[c+1]] }

// decodeSnap expands the output snapshot of a budget-axis fold step
// into dst, a table of n rows of cols interleaved columns (see
// foldSpec) with infeasible sentinel inval.
func decodeSnap[T int32 | int](f *foldSnap, dst []T, n, cols int, inval T) {
	for c := 0; c < cols; c++ {
		decodeRuns(f.out(c), dst[c:], n, cols, inval)
	}
}

// encodeCols encodes the cols interleaved columns of a table of n rows
// into *runs, with per-column offsets in *off, dropping each column's
// leading runs above limit. Returns false on a contract violation.
func encodeCols[T int32 | int](tab []T, n, cols int, inval T, limit int64, off *[]int32, runs, tmp *[]bpRun) bool {
	*off = grown(*off, cols+1)
	*runs = (*runs)[:0]
	for c := 0; c < cols; c++ {
		(*off)[c] = int32(len(*runs))
		enc, ok := encodeRuns(tab[c:], n, cols, inval, *tmp)
		*tmp = enc[:0]
		if !ok {
			return false
		}
		for len(enc) > 0 && enc[0].val > limit {
			enc = enc[1:]
		}
		*runs = append(*runs, enc...)
	}
	(*off)[cols] = int32(len(*runs))
	return true
}

// foldSpec fixes a solver's budget-axis fold step: the MinCost merge
// (one column, merged loads within W, equipping the child allowed) or
// the QoS knapsack merge (one column per depth requirement, child flows
// within the link bandwidth). Tables hold cols interleaved columns —
// cell (r, c) at r*cols+c, row r being the server budget.
type foldSpec[T int32 | int] struct {
	cols    int
	inval   T     // infeasible sentinel
	loadCap int64 // largest merged (acc + child) load
	chCap   int64 // largest usable child load (bpInfVal: no cap)
	place   bool  // equipping the child, absorbing its load, is an option
}

// step runs one fold step on breakpoints: column c of out (rows
// 0..outN) folds column c of acc (rows 0..accN) with column c of ch
// (rows 0..chN) by bpConv, equipping the child an option with place. Child
// values fall along the budget axis, so the cells over chCap are the
// leading runs, which are dropped. outN must not exceed the natural
// reach accN+chN (plus one with place). Inputs are read dense and out
// is written dense; the runs are retained in snap. Merge work counts
// the input runs (acc and capped child, per column), rows two per
// column. Returns false, leaving out unwritten, when a column violates
// the monotone contract: the caller then runs its dense kernel (and
// clears snap.comp), so compression is exact unconditionally.
func (f *foldSpec[T]) step(snap *foldSnap, acc, ch, out []T, accN, chN, outN int32, sc *bpScratch, ms *mergeStats) bool {
	if !encodeCols(acc, int(accN)+1, f.cols, f.inval, bpInfVal, &snap.inOff, &snap.inRuns, &sc.tmp) ||
		!encodeCols(ch, int(chN)+1, f.cols, f.inval, f.chCap, &sc.cols, &sc.colRuns, &sc.tmp) {
		return false
	}
	snap.outOff = grown(snap.outOff, f.cols+1)
	snap.outRuns = snap.outRuns[:0]
	for c := 0; c < f.cols; c++ {
		snap.outOff[c] = int32(len(snap.outRuns))
		aR, cR := snap.in(c), sc.colRuns[sc.cols[c]:sc.cols[c+1]]
		ms.cells += len(aR) + len(cR)
		if len(aR) > 0 && len(cR) > 0 {
			snap.outRuns = append(snap.outRuns, bpConv(aR, cR, f.loadCap, outN, f.place, sc)...)
		}
	}
	snap.outOff[f.cols] = int32(len(snap.outRuns))
	snap.comp = true
	ms.rows += 2 * f.cols
	decodeSnap(snap, out, int(outN)+1, f.cols, f.inval)
	return true
}

// split reconstructs the decision the dense kernel would have recorded
// for output cell (k, c) of compressed step snap: the acc row n1 the
// value came from, and whether the child was equipped (its row is then
// k-n1-1, else k-n1). The dense kernels visit candidates in ascending
// n1 — at equal n1 the place candidate first — and overwrite only on a
// strict improvement, so the decision is the first candidate in that
// order achieving the cell's final value. Acc runs partition n1 into
// ascending intervals, a run valued above the cell yields only beaten
// candidates, and within a run the matching child rows form one
// interval of the monotone child column, read from the child's retained
// dense table ch (rows 0..chN). accN is the acc row's last index.
func (f *foldSpec[T]) split(snap *foldSnap, ch []T, c int, k, accN, chN int32) (n1 int32, equip bool) {
	v := bpAt(snap.out(c), k)
	if v >= bpInfVal {
		panic(fmt.Sprintf("core: reconstruction reached infeasible fold cell (%d,%d)", k, c))
	}
	col := ch[c:]
	cFirst := firstFeasible(col, int(chN)+1, f.cols, f.inval, f.chCap)
	in := snap.in(c)
	for p := range in {
		rs, va := in[p].start, in[p].val
		if va > v {
			continue
		}
		re := accN
		if p+1 < len(in) {
			re = in[p+1].start - 1
		}
		// Place: the child row k-1-n1 must be usable.
		n1p := int32(-1)
		if f.place && va == v {
			if lo, hi := max(rs, k-1-chN), min(re, k-1-cFirst); lo <= hi {
				n1p = lo
			}
		}
		// No place: the child row k-n1 must hold exactly v-va, within
		// both caps.
		n1n := int32(-1)
		if v <= f.loadCap && v-va <= f.chCap {
			if cl, cr, ok := valueRun(col, f.cols, cFirst, chN, v-va); ok {
				if lo, hi := max(rs, k-cr), min(re, k-cl); lo <= hi {
					n1n = lo
				}
			}
		}
		switch {
		case n1p >= 0 && (n1n < 0 || n1p <= n1n):
			return n1p, true
		case n1n >= 0:
			return n1n, false
		}
		// Later runs hold larger n1: the first run with a candidate
		// owns the decision.
	}
	panic(fmt.Sprintf("core: no split for fold cell (%d,%d)", k, c))
}
