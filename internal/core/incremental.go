package core

import (
	"context"

	"replicatree/internal/tree"
)

// This file holds the machinery shared by the incremental re-solve
// paths of MinCostSolver, QoSSolver and PowerDP. The dynamic programs
// are subtree-decomposable: the table of a node depends only on its own
// client demands, its children's tables, and per-child attributes of
// the instance (pre-existing membership/modes, link bandwidths). When a
// solve changes only a few of those inputs, every table outside the
// ancestor chains of the changed nodes is still exact, so the solvers
// keep all per-node tables in retained buffers across solves and
// recompute only the dirty chains — O(changed nodes × depth) instead of
// O(N) tables per solve.
//
// Staleness is detected per input class:
//
//   - client demands, via tree.Tree.DemandGen stamps (a change at node
//     x dirties x and its ancestors);
//   - pre-existing sets and operating modes, by diffing against a
//     retained copy of the previous solve's set (a change at x dirties
//     parent(x) and above: x's own table never depends on x's
//     membership, only its parent's merge does);
//   - global parameters that reshape every table (capacity W, the power
//     model, a constraint set), by full invalidation;
//   - parameters read only by the root scan (cost models), by nothing:
//     the root scan and the reconstruction run on every solve.
//
// The retained buffers replace the per-solve arenas for everything
// that must outlive a solve (final node tables, reconstruction
// back-pointers); merge intermediates still live in the arenas. Both
// only ever grow, so the zero-allocation steady state of the arena
// contract carries over to incremental solves.

// grown returns a slice of length n with unspecified contents for
// retained per-node DP storage, reusing buf's capacity when possible.
func grown[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// grownKeep is grown preserving the prefix already in buf. Used for
// slices whose elements are themselves retained buffers (per-node
// tables), so a cross-tree rebind keeps every buffer as a capacity
// donor.
func grownKeep[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	out := make([]T, n)
	copy(out, buf)
	return out
}

// SolveStats profiles a reusable solver's most recent solve; after a
// cancelled or failed solve it describes the aborted pass (see Stats).
type SolveStats struct {
	// Nodes is the number of internal nodes of the bound tree.
	Nodes int
	// Recomputed counts the nodes whose DP tables were rebuilt: equal
	// to Nodes on a cold (or invalidated) solve, the total size of the
	// dirty ancestor chains on an incremental one, and 0 when nothing
	// relevant changed since the previous solve. A partially re-merged
	// power root (see RootCellsRepriced) counts as one recomputed node.
	Recomputed int
	// RootCellsScanned and RootCellsRepriced profile PowerDP's
	// incremental root scan (both stay 0 for MinCostSolver and
	// QoSSolver). Scanned is the size of the root table the scan
	// covered — 0 when the whole scan was skipped because neither the
	// table nor the pricing context changed. Repriced counts the cells
	// whose price candidates were actually recomputed: equal to Scanned
	// on a cold scan (or after a cost-model change), and only the cells
	// of root-table blocks whose values changed on an incremental
	// re-solve — the rest reuse their retained block Pareto fronts.
	RootCellsScanned  int
	RootCellsRepriced int
	// RootMergeRetained counts the fold steps of PowerDP's root merge
	// that were reused from the previous solve instead of re-merged:
	// 0 on a cold solve, the number of root children when the whole
	// fold was skipped, and the length of the still-exact fold prefix
	// on a partial replay. The volatility-ordered fold (see
	// PowerDP.Reset) exists to push this number up. Stays 0 for
	// MinCostSolver and QoSSolver.
	RootMergeRetained int
	// MergeCellsScanned measures the merge work of the solve: table
	// cells visited by dense merge kernels plus the input breakpoint
	// runs of compressed ones — every solver counts a compressed step's
	// accumulator and child runs of each row pair it folds, never its
	// output runs. Comparing it against the dense-only volume of a cold
	// solve is the direct read on what row compression saves.
	MergeCellsScanned int
	// RowsCompressed counts the DP rows the merge kernels ran in
	// breakpoint form instead of densely: the accumulator and child
	// rows of each compressed merge step (two per column of a MinCost
	// or QoS fold). 0 when every row sat below the activation width
	// minDenseWidth.
	RowsCompressed int
	// FoldSuffixReplayed counts the merge steps re-executed by partial
	// child-fold replays: a dirty node whose first stale child sits at
	// position s of its fold re-runs only the suffix from s, and those
	// suffix steps land here. Steps of full (position-0) rebuilds do
	// not count, so on drift solves a low number next to a high
	// Recomputed means the retained fold prefixes are doing their job.
	FoldSuffixReplayed int
	// MaskedNodes is the number of nodes the solver's fault mask (see
	// MinCostSolver.SetMask) held down during the solve: 0 without a
	// mask. Stays 0 for QoSSolver and PowerDP, which do not take masks.
	MaskedNodes int
}

// mergeStats accumulates the merge-layer counters of SolveStats per
// worker, so the wave-parallel pass can count without synchronisation.
type mergeStats struct {
	cells    int
	rows     int
	replayed int
}

// addTo folds the worker-local counters into st.
func (m *mergeStats) addTo(st *SolveStats) {
	st.MergeCellsScanned += m.cells
	st.RowsCompressed += m.rows
	st.FoldSuffixReplayed += m.replayed
}

// dirtyTracker decides, at the start of a solve, which nodes' cached
// subtree tables are stale. Not safe for concurrent use (it lives
// inside the solvers, which already are single-goroutine).
type dirtyTracker struct {
	solved bool
	seen   []uint64 // demand generation folded into each node's table
	dirty  []bool
}

// bind sizes the tracker for an n-node tree and forces the next solve
// to be a full one.
func (d *dirtyTracker) bind(n int) {
	d.seen = grown(d.seen, n)
	d.dirty = grown(d.dirty, n)
	d.solved = false
}

// invalidate forces the next solve to recompute every table.
func (d *dirtyTracker) invalidate() { d.solved = false }

// mark seeds the dirty set from the demand generations (or everything,
// when full is set or no valid solve exists yet).
func (d *dirtyTracker) mark(t *tree.Tree, full bool) {
	full = full || !d.solved
	for j := 0; j < t.N(); j++ {
		d.dirty[j] = full || t.DemandGen(j) != d.seen[j]
	}
}

// markParent dirties the parent of j: the hook for per-child inputs
// (membership, modes) that a node's own table does not depend on.
func (d *dirtyTracker) markParent(t *tree.Tree, j int) {
	if p := t.Parent(j); p >= 0 {
		d.dirty[p] = true
	}
}

// propagate pushes dirtiness up the ancestor chains. Walking the
// post-order visits every child before its parent, so one pass
// suffices.
func (d *dirtyTracker) propagate(t *tree.Tree) {
	for _, j := range t.PostOrder() {
		if d.dirty[j] {
			if p := t.Parent(j); p >= 0 {
				d.dirty[p] = true
			}
		}
	}
}

// commit records that every table now reflects the tree's current
// demands. Call only after the recomputation pass succeeded.
func (d *dirtyTracker) commit(t *tree.Tree) {
	for j := 0; j < t.N(); j++ {
		d.seen[j] = t.DemandGen(j)
	}
	d.solved = true
}

// nodeSolver is the per-node half of a solver: rebuild node j's table
// from its children's retained tables using worker w's scratch.
type nodeSolver interface {
	solveNode(j, w int) error
}

// solverCore is the lifecycle the three solvers (MinCostSolver, PowerDP,
// QoSSolver) share and embed: the tree binding, the dirty tracker, the
// wave scheduler, the cancellation gate, the per-worker scratch, and the
// bottom-up pass that drives a solver's solveNode over the dirty nodes.
// A is the element type of the solver's merge arenas.
type solverCore[A int32 | int] struct {
	t    *tree.Tree
	node nodeSolver

	track  dirtyTracker
	wave   waveSched
	cancel cancelGate

	// Per-worker scratch: merge-intermediate arenas, recycled per node
	// (intermediates never outlive the node whose merges produced them,
	// so each arena sizes to the largest single node, not a whole
	// solve), compressed-merge scratch, merge counters, and the first
	// error each wave worker hit.
	arenas []arena[A]
	bps    []bpScratch
	mstats []mergeStats
	errs   []error

	// recomputed counts the node tables the current solve rebuilt.
	// fullSolve is set for the duration of one solve when every table
	// must be rebuilt (a global parameter changed, or no valid previous
	// solve): partial fold replays are then disabled even at nodes whose
	// children look clean.
	recomputed int
	fullSolve  bool

	// st carries the solver-specific counters of SolveStats
	// (MaskedNodes, the Root* fields); Stats fills in the rest.
	st SolveStats
}

// init readies a core for the solver n with one worker. Called once by
// each constructor before its first Reset.
func (c *solverCore[A]) init(n nodeSolver) {
	c.node = n
	c.arenas = make([]arena[A], 1)
	c.bps = make([]bpScratch, 1)
	c.mstats = make([]mergeStats, 1)
	c.wave.workers = 1
}

// bind points the core at tree t and forces the next solve to be a full
// one.
func (c *solverCore[A]) bind(t *tree.Tree) {
	c.t = t
	c.track.bind(t.N())
}

// SetWorkers sets the number of workers for the bottom-up pass
// (workers <= 0 selects runtime.GOMAXPROCS(0); 1, the default, runs
// sequentially without goroutines). Each height wave of the tree is
// fanned across the workers: a node's table depends only on its
// children's retained tables, every child sits in a strictly lower
// wave, and each dirty node is computed by exactly one worker into its
// own per-node buffers — so results are bit-identical for every worker
// count (see waveSched). Incremental solves keep their advantage: only
// the dirty nodes of each wave are dispatched. PowerDP's root, alone in
// the last wave, keeps its sequential retained-prefix fold either way.
func (c *solverCore[A]) SetWorkers(workers int) {
	n := c.wave.setWorkers(workers, func(w, i int) {
		if err := c.node.solveNode(c.wave.dirtyIdx[i], w); err != nil && c.errs[w] == nil {
			c.errs[w] = err
		}
	})
	c.arenas = grownKeep(c.arenas, n)[:n]
	c.bps = grownKeep(c.bps, n)[:n]
	c.mstats = grownKeep(c.mstats, n)[:n]
	c.errs = grownKeep(c.errs, n)[:n]
}

// SetContext installs a context consulted by every following solve at
// coarse checkpoints: between height waves on the parallel pass, every
// few node tables on the sequential one (every table for PowerDP), and,
// for PowerDP, between the root's merge fold steps and between the
// blocks of its root scan. Once the context is cancelled the in-flight
// solve stops within one checkpoint and returns the context's error
// with nothing committed: the solver stays repairable, and the next
// solve under a live context lands on results byte-identical to a solve
// that was never interrupted. A nil context — the default — disables
// the checkpoints entirely.
func (c *solverCore[A]) SetContext(ctx context.Context) { c.cancel.set(ctx) }

// Invalidate discards the validity of every cached subtree table,
// forcing the next solve to recompute the whole tree. It is needed only
// after out-of-band mutations the solver cannot observe: demand edits
// through SetDemand/SetClientRequests, pre-existing set and mode
// changes, and constraint edits through the Constraints setters are
// detected automatically.
func (c *solverCore[A]) Invalidate() { c.track.invalidate() }

// Stats profiles the most recent solve: how many of the tree's node
// tables it recomputed and how much merge work it did. Every solve
// resets these counters before its bottom-up pass, so after a solve
// that was cancelled (or failed) mid-pass, Stats describes the aborted
// partial pass, not the last completed solve. PowerDP's Root* counters
// change only when its root fold or root scan runs.
func (c *solverCore[A]) Stats() SolveStats {
	st := c.st
	st.Nodes, st.Recomputed = c.t.N(), c.recomputed
	for i := range c.mstats {
		c.mstats[i].addTo(&st)
	}
	return st
}

// pass runs one bottom-up recomputation of the nodes the tracker marked
// dirty, skipping the root when skipRoot is set (PowerDP folds it
// separately). With one worker it walks the post-order, polling the
// cancellation gate before every stride-th node it rebuilds; otherwise
// it dispatches the tree wave by wave to the pool (see waveSched.run).
// It returns the first error a node rebuild reported, or the context's
// error when the pass was cancelled.
func (c *solverCore[A]) pass(stride int, skipRoot bool) error {
	t := c.t
	for i := range c.mstats {
		c.mstats[i] = mergeStats{}
	}
	c.recomputed = 0
	var err error
	if c.wave.workers > 1 {
		waves := t.Waves()
		if skipRoot {
			// The root is provably the sole member of the last wave.
			waves--
		}
		for w := range c.errs {
			c.errs[w] = nil
		}
		var ok bool
		c.recomputed, ok = c.wave.run(t, c.track.dirty, waves, c.cancel.done)
		for _, err = range c.errs {
			if err != nil {
				break
			}
		}
		if err == nil && !ok {
			err = c.cancel.ctx.Err()
		}
	} else {
		root, poll := t.Root(), 0
		for _, j := range t.PostOrder() {
			if !c.track.dirty[j] || (skipRoot && j == root) {
				continue
			}
			if c.recomputed == poll {
				if err = c.cancel.err(); err != nil {
					break
				}
				poll += stride
			}
			c.recomputed++
			if err = c.node.solveNode(j, 0); err != nil {
				break
			}
		}
	}
	c.fitScratch()
	return err
}

// fitScratch ends a pass. A per-node reset grows an arena to the need
// of the node handled before it, so the growth owed to each arena's
// last node would otherwise be deferred into a later solve's first
// reset — a one-off allocation there (all-clean solves never reset, so
// it can land in a timed region). It flushes that growth, then grows
// every worker's arena and compressed-merge scratch to the pass-wide
// high-water mark: which worker first meets the widest node depends on
// scheduling, and without the fit a later pass could hand that node to
// a worker whose scratch never grew, allocating in steady state.
func (c *solverCore[A]) fitScratch() {
	hw := 0
	for i := range c.arenas {
		c.arenas[i].reset()
		hw = max(hw, len(c.arenas[i].buf))
	}
	for i := range c.arenas {
		if a := &c.arenas[i]; len(a.buf) < hw {
			a.buf = make([]A, hw)
		}
	}
	fitBpScratch(c.bps)
}

// foldStart returns the first step of node j's k-step child fold that
// must be re-merged: 0 on a full solve; otherwise the first step stale
// reports, or k when none is stale. When ownDemand is set the fold's
// base cell holds j's own client demand, so a changed demand restarts
// it at 0 too, and k then means the retained table is still exact. A
// restart past step 0 needs the preceding step's compressed output
// snapshot as the accumulator, so it falls back to 0 when snap (nil =
// every step retains one) reports none.
func (c *solverCore[A]) foldStart(j, k int, ownDemand bool, stale, snap func(q int) bool) int {
	if c.fullSolve || (ownDemand && c.t.DemandGen(j) != c.track.seen[j]) {
		return 0
	}
	q := 0
	for q < k && !stale(q) {
		q++
	}
	if q == k && ownDemand {
		return k
	}
	if q > 0 && snap != nil && !snap(q-1) {
		return 0
	}
	return q
}
