package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/tree"
)

// PowerProblem is an instance of MinPower-BoundedCost (Section 4.3). A
// nil Existing set gives the NoPre variant; otherwise the modes stored
// in Existing are the initial operating modes of the pre-existing
// servers. A problem carries no worker count: parallelism is a property
// of the solver, selected with PowerDP.SetWorkers, which fans the
// non-root nodes of each height wave across a worker pool with
// bit-identical results.
type PowerProblem struct {
	// Tree may be nil when solving through a PowerDP, which supplies
	// its own tree.
	Tree     *tree.Tree
	Existing *tree.Replicas
	Power    power.Model
	Cost     cost.Modal
}

// PowerResult is one optimal placement with its exact cost and power.
type PowerResult struct {
	// Placement holds the solution servers with their operating modes.
	Placement *tree.Replicas
	Cost      float64
	Power     float64
}

// ParetoPoint is one non-dominated (cost, power) trade-off.
type ParetoPoint struct {
	Cost  float64
	Power float64
}

// PowerSolver holds the output of one run of the power dynamic program.
// A single run answers MinPower, MinPower-BoundedCost for every bound,
// and the full Pareto front, because the root table enumerates every
// achievable server-count vector (Theorem 3). A PowerSolver returned by
// a PowerDP borrows that solver's scratch and stays valid only until
// the next PowerDP.Solve call.
type PowerSolver struct {
	prob      PowerProblem
	front     []frontEntry // ascending cost, strictly descending power
	steps     [][]pStep    // reconstruction back-pointers per node
	rootOrder []int        // root fold position -> child position (empty = natural)
}

type frontEntry struct {
	cost     float64
	power    float64
	rootCell int32
	rootMode uint8 // 0 = no server on the root
}

// pUnreached marks table cells with no feasible solution. Valid entries
// are at most W_M, so any value above wm is "unreached"; MaxInt32 lets
// the merge keep the plain "smaller value wins" update.
const pUnreached = int32(math.MaxInt32)

// noProv marks cells whose provenance has not been written.
const noProv = ^uint64(0)

// packProv encodes where a cell's value came from: the flat cell of the
// accumulated table before the merge, the flat cell of the merged
// child's final table, and the mode of a server placed on the child
// (0 = none). Both flat indices fit in 27 bits (maxTableCells), so the
// triple packs into one uint64 ordered exactly like the sequential
// scan: ascending accumulated cell, then child cell.
func packProv(aFlat, cFlat int, mode uint8) uint64 {
	return uint64(aFlat)<<35 | uint64(cFlat)<<8 | uint64(mode)
}

func unpackProv(p uint64) (aFlat, cFlat int32, mode uint8) {
	return int32(p >> 35), int32(p >> 8 & (1<<27 - 1)), uint8(p)
}

// pStep is the decision table produced by merging one child: packed
// provenance per cell of the post-merge table. A step merged by the
// compressed kernel (comp == true) materialises no provenance;
// instead it snapshots its encoded input and output rows (the embedded
// fold snapshot, one run list per n_M row) and child rows
// (minpower_compress.go), from which reconstruction re-derives any
// cell's decision lazily and a suffix replay re-seeds the fold.
type pStep struct {
	prov []uint64

	foldSnap
	accLen, chLen, outLen int32 // n_M-axis widths of the merged tables
	chOff                 []int32
	chRuns                []bpRun
}

// SolvePower runs the MinPower-BoundedCost dynamic program. The table of
// a node is indexed by the full count vector (n_1..n_M, e_{i→i'}): new
// servers per operating mode and reused pre-existing servers per
// (initial mode, operating mode) pair; each cell keeps the minimal
// number of requests traversing the node (the Lemma 1 argument applies
// per vector because cost and power are functions of the vector alone).
// A server placed on a node with traversing load q may operate at any
// mode whose capacity covers q — the paper's "try all possible modes"
// loop — which subsumes the load-determined minimal mode and lets a
// reused server stay at its initial mode free of change cost.
//
// The complexity matches Theorem 3: O(N^{2M+1}) without pre-existing
// servers and O(N^{2M²+2M+1}) with them, in the worst case; per-subtree
// dimension bounds make typical instances far cheaper.
//
// The program is exact only under the closest access policy
// (tree.PolicyClosest); see the package documentation for the relaxed
// policies.
//
// SolvePower builds a fresh PowerDP per call; hot loops solving many
// instances on the same tree should hold one PowerDP instead.
func SolvePower(p PowerProblem) (*PowerSolver, error) {
	if p.Tree == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	sol, err := NewPowerDP(p.Tree).Solve(p)
	if err != nil {
		return nil, err
	}
	// Detach the solution view from the throwaway PowerDP: the copy
	// keeps only the front and the provenance tables alive, letting
	// the value tables (about half the DP's memory) be collected while
	// the caller holds the solver.
	detached := *sol
	return &detached, nil
}

// PowerDP is a reusable MinPower-BoundedCost solver for one tree.
// Merge intermediates live in flat arenas and every node's final
// table, shape and provenance in retained per-node buffers, all grown
// monotonically to the high-water mark of past solves, so after two
// warm-up solves of an instance shape every further Solve performs no
// heap allocation.
//
// The retained tables make solves incremental, mode-indexed shapes
// included: demand edits through tree.Tree.SetDemand dirty the touched
// node's ancestor chain, a changed initial mode of a pre-existing
// server dirties its parent's chain (the mode re-dimensions every
// ancestor's count vector, which is exactly the set of tables the
// chain covers), and a different power model invalidates everything.
// The cost model never invalidates tables — only the root scan prices
// it — so sweeping cost models re-solves in O(root-table) time. Use
// Invalidate after mutations the solver cannot observe, and Reset to
// rebind the solver to another tree while keeping its buffers.
//
// The PowerSolver a Solve returns aliases the solver's scratch: it is
// invalidated by the next Solve (or Reset). A PowerDP is not safe for
// concurrent use; run one per goroutine.
type PowerDP struct {
	solverCore[int32]
	empty *tree.Replicas

	// Per-solve configuration.
	prob PowerProblem
	M    int   // number of modes
	nf   int   // number of vector fields, M + M²
	wm   int32 // W_M

	// Per node, retained across solves: final table, its shape, the
	// per-merge provenance tables (steps[j] has one entry per child of
	// j), and the subtree (exclusive) counts of non-pre-existing nodes
	// and of pre-existing nodes per initial mode.
	shapes []shape
	vals   [][]int32
	steps  [][]pStep
	newCnt []int32
	preCnt [][]int32

	// Incremental bookkeeping.
	lastMode  []uint8
	lastPower power.Model
	noPre     bool // no pre-existing servers: compressed merges allowed

	// Root-scan state (minpower_root.go): retained partial root merges,
	// the previous solve's final root table and per-block Pareto fronts
	// for the incremental delta-priced scan, plus the pricing context
	// those fronts were computed under.
	rootSteps      []rootStep
	rootRecomputed bool
	blocks         []rootBlock
	prevRoot       []int32
	prevDims       []int32
	cw, pw         []float64 // per-field cost/power weights
	baseC          float64   // count-independent cost term (deletions)
	totalPre       []int
	scanOK         bool
	scanCost       cost.Modal
	scanPower      power.Model
	scanMode0      uint8
	scanPre        []int

	// Volatility-ordered root fold (minpower_root.go): how often each
	// root child's subtree was observed changed since the last Reset,
	// and the fold order derived from those counts.
	volCount  []int64
	rootOrder []int // fold position -> child position (empty = natural)

	cands []frontEntry // root-scan candidates, high-water reused
	front []frontEntry // pruned Pareto front, high-water reused
	sol   PowerSolver
}

// NewPowerDP returns a reusable power solver for t.
func NewPowerDP(t *tree.Tree) *PowerDP {
	d := &PowerDP{}
	d.init(d)
	d.Reset(t)
	return d
}

// Reset rebinds the solver to tree t, keeping every retained buffer as
// scratch for the new tree, so sweeping many trees of similar shape
// through one solver skips most warm-up allocations. The first solve
// after a Reset recomputes every table, and any PowerSolver returned
// by an earlier Solve is invalidated.
func (d *PowerDP) Reset(t *tree.Tree) {
	n := t.N()
	d.bind(t)
	if d.empty == nil || d.empty.N() != n {
		d.empty = tree.NewReplicas(n)
	}
	d.shapes = grownKeep(d.shapes, n)
	d.vals = grownKeep(d.vals, n)
	d.steps = grownKeep(d.steps, n)
	for j := 0; j < n; j++ {
		d.steps[j] = grownKeep(d.steps[j], len(t.Children(j)))
	}
	d.newCnt = grown(d.newCnt, n)
	d.preCnt = grownKeep(d.preCnt, n)
	d.lastMode = grown(d.lastMode, n)
	K := len(t.Children(t.Root()))
	d.rootSteps = grownKeep(d.rootSteps, K)

	// Volatility-ordered root fold: rebind-time is the one moment the
	// fold order may change (every retained root step is invalid anyway),
	// so sort the children by how often their subtrees were observed
	// changed since the last Reset, coldest first. The churning child
	// then sits late in the fold and the retained-prefix restart of
	// runRoot skips the stable majority. Reordering cannot change the
	// front: the merge fold is commutative and associative on table
	// values (a min-plus convolution over disjoint count coordinates),
	// so only the provenance path differs — and reconstruction follows
	// the same order via PowerSolver.rootOrder.
	// The order reuses the previous order's buffer (empty = natural),
	// which keeps a pooled Reset + Solve cycle allocation-free.
	order := d.rootOrder[:0]
	natural := true
	if K > 1 && K == len(d.volCount) {
		for i := 0; i < K; i++ {
			order = append(order, i)
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(d.volCount[a], d.volCount[b])
		})
		for i, st := range order {
			if i != st {
				natural = false
				break
			}
		}
	}
	if natural {
		order = order[:0]
	}
	d.rootOrder = order
	d.volCount = grown(d.volCount, K)
	for i := range d.volCount {
		d.volCount[i] = 0
	}

	d.scanOK = false
}

// Invalidate discards the validity of every cached subtree table and
// of the retained root-scan state, forcing the next solve to recompute
// and re-price the whole tree like a cold solver. Demand edits through
// SetDemand/SetClientRequests, pre-existing mode changes, power-model
// swaps and cost-model changes are detected automatically and do not
// need it.
func (d *PowerDP) Invalidate() {
	d.solverCore.Invalidate()
	d.scanOK = false
}

// retainShape copies a shape built from arena storage into node j's
// retained shape buffers.
func (d *PowerDP) retainShape(j int, sh shape) {
	s := &d.shapes[j]
	s.dims = append(s.dims[:0], sh.dims...)
	s.strides = append(s.strides[:0], sh.strides...)
	s.size = sh.size
}

// Solve runs the dynamic program for one problem instance on the
// solver's tree (p.Tree may be nil or must match it). The returned
// PowerSolver is owned by the PowerDP and valid until the next Solve.
func (d *PowerDP) Solve(p PowerProblem) (*PowerSolver, error) {
	if p.Tree == nil {
		p.Tree = d.t
	} else if p.Tree != d.t {
		return nil, fmt.Errorf("core: PowerDP bound to a different tree")
	}
	if p.Existing == nil {
		p.Existing = d.empty
	}
	if p.Existing.N() != p.Tree.N() {
		return nil, fmt.Errorf("core: existing set covers %d nodes, tree has %d", p.Existing.N(), p.Tree.N())
	}
	if err := p.Power.Validate(); err != nil {
		return nil, err
	}
	if err := p.Cost.Validate(); err != nil {
		return nil, err
	}
	if p.Cost.M() != p.Power.M() {
		return nil, fmt.Errorf("core: cost model has %d modes, power model %d", p.Cost.M(), p.Power.M())
	}
	M := p.Power.M()
	if M > 255 {
		return nil, fmt.Errorf("core: %d modes not supported", M)
	}
	for j := 0; j < p.Tree.N(); j++ {
		if int(p.Existing.Mode(j)) > M {
			return nil, fmt.Errorf("core: pre-existing server at node %d has mode %d > M=%d", j, p.Existing.Mode(j), M)
		}
	}
	if p.Power.MaxCap() > math.MaxInt32/4 {
		return nil, fmt.Errorf("core: capacity %d too large", p.Power.MaxCap())
	}
	if m := p.Tree.MaxClientSum(); m > p.Power.MaxCap() {
		return nil, fmt.Errorf("core: a node's clients demand %d > W_M=%d: %w", m, p.Power.MaxCap(), ErrInfeasible)
	}
	d.prob, d.M, d.nf, d.wm = p, M, M+M*M, int32(p.Power.MaxCap())
	d.noPre = p.Existing.Count() == 0

	// Demands dirty their ancestor chain; a changed initial mode of a
	// pre-existing server dirties its parent's chain (a node's own
	// table never depends on its own mode, but every ancestor's count
	// vector does); a different power model reshapes every table. The
	// cost model only prices the root scan below.
	t0 := p.Tree
	d.fullSolve = !p.Power.Equal(d.lastPower) || !d.track.solved
	d.track.mark(t0, d.fullSolve)
	for j := 0; j < t0.N(); j++ {
		if d.lastMode[j] != p.Existing.Mode(j) {
			d.track.markParent(t0, j)
		}
	}
	d.track.propagate(t0)

	if err := d.run(); err != nil {
		// A mid-tree failure (table-size overflow or cancellation) has
		// already overwritten some retained tables for the failed
		// instance; nothing was committed, so force the next solve to
		// rebuild everything rather than mix instances.
		d.track.invalidate()
		return nil, err
	}

	// Commit before the root scan: the tables are valid even when the
	// scan finds the instance infeasible. The model copy reuses the
	// retained capacity slice so a steady-state solve stays alloc-free
	// and later in-place mutations of the caller's slice cannot alias.
	d.lastPower = power.Model{
		Caps:   append(d.lastPower.Caps[:0], p.Power.Caps...),
		Static: p.Power.Static,
		Alpha:  p.Power.Alpha,
	}
	for j := 0; j < t0.N(); j++ {
		d.lastMode[j] = p.Existing.Mode(j)
	}
	d.track.commit(t0)

	if err := d.scanRoot(); err != nil {
		// Cancelled mid-scan: the subtree tables above were committed
		// and stay exact, but some retained block fronts were already
		// overwritten; scanOK is false, so the next solve re-prices the
		// whole root table.
		return nil, err
	}
	if len(d.front) == 0 {
		return nil, fmt.Errorf("core: %w", ErrInfeasible)
	}
	d.sol = PowerSolver{prob: p, front: d.front, steps: d.steps, rootOrder: d.rootOrder}
	return &d.sol, nil
}

// fieldNew returns the vector field of n_m (1-based mode m).
func (d *PowerDP) fieldNew(m int) int { return m - 1 }

// fieldReuse returns the vector field of e_{i→m} (1-based modes).
func (d *PowerDP) fieldReuse(i, m int) int { return d.M + (i-1)*d.M + (m - 1) }

// nodeDims fills dims with the table dimensions for the subtree of j
// (node j excluded): every n_m field is bounded by the number of
// non-pre nodes, every e_{i→m} field by the number of pre-existing
// nodes with initial mode i.
func (d *PowerDP) nodeDims(dims []int32, newCnt int32, preCnt []int32) {
	for m := 1; m <= d.M; m++ {
		dims[d.fieldNew(m)] = newCnt + 1
	}
	for i := 1; i <= d.M; i++ {
		for m := 1; m <= d.M; m++ {
			dims[d.fieldReuse(i, m)] = preCnt[i-1] + 1
		}
	}
}

// run rebuilds every dirty table: the non-root nodes in the shared
// bottom-up pass, polling the cancellation gate before every table
// (power tables are expensive enough that a per-node poll is
// invisible), then the root's retained-prefix fold.
func (d *PowerDP) run() error {
	d.rootRecomputed = false
	if err := d.pass(1, true); err != nil {
		return err
	}
	return d.runRoot()
}

// childStale reports whether child ch's fold step is stale: its subtree
// table was rebuilt, or its pre-existing mode changed.
func (d *PowerDP) childStale(ch int) bool {
	return d.track.dirty[ch] || d.lastMode[ch] != d.prob.Existing.Mode(ch)
}

// unitShape returns the all-ones shape of a single-cell table (backed
// by ar): the base of every child fold.
func (d *PowerDP) unitShape(ar *arena[int32]) shape {
	dims := ar.alloc(d.nf)
	for f := range dims {
		dims[f] = 1
	}
	sh, _ := fillShape(dims, ar.alloc(d.nf)) // one cell: cannot overflow
	return sh
}

// solveNode rebuilds the final table of non-root node j, drawing merge
// intermediates from worker w's arena (reset here, per node). When only
// a suffix of the child fold is stale and the preceding step was merged
// compressed, the fold restarts from its retained snapshot instead of
// from scratch.
func (d *PowerDP) solveNode(j, w int) error {
	t := d.prob.Tree
	ar, sc, ms := &d.arenas[w], &d.bps[w], &d.mstats[w]
	ar.reset()
	kids := t.Children(j)
	accNew := int32(0)
	accPre := ar.alloc(d.M)
	for i := range accPre {
		accPre[i] = 0
	}

	if len(kids) == 0 {
		// A leaf's final table is the single base cell holding the
		// requests of j's own clients.
		d.vals[j] = grown(d.vals[j], 1)
		d.vals[j][0] = int32(t.ClientSum(j))
		d.retainShape(j, d.unitShape(ar))
		d.newCnt[j] = accNew
		d.preCnt[j] = append(d.preCnt[j][:0], accPre...)
		return nil
	}

	// First stale fold step: the node's own demand rewrites the base
	// cell (step 0), a dirty child subtree or a flipped pre-existing
	// mode invalidates its step and everything after. Restarting
	// mid-fold needs the preceding step's compressed snapshot to
	// re-seed the accumulated table.
	start := d.foldStart(j, len(kids), true, func(q int) bool { return d.childStale(kids[q]) },
		func(q int) bool { return d.steps[j][q].comp })
	if start == len(kids) {
		return nil // spurious dirty; the retained table is exact
	}

	var acc []int32
	var accShape shape
	var err error
	if start == 0 {
		accShape = d.unitShape(ar)
		acc = ar.alloc(1)
		acc[0] = int32(t.ClientSum(j))
	} else {
		// Prefix-fold the already-merged children's counts (their
		// subtrees and modes are unchanged, so the retained per-child
		// counts still apply), then decode the snapshot of the last
		// clean step into the accumulated table.
		for _, ch := range kids[:start] {
			accNew += d.newCnt[ch]
			for i := range accPre {
				accPre[i] += d.preCnt[ch][i]
			}
			if m0 := int(d.prob.Existing.Mode(ch)); m0 == 0 {
				accNew++
			} else {
				accPre[m0-1]++
			}
		}
		accDims := ar.alloc(d.nf)
		d.nodeDims(accDims, accNew, accPre)
		if accShape, err = fillShape(accDims, ar.alloc(d.nf)); err != nil {
			return err
		}
		acc = ar.alloc(accShape.size)
		decodeStep(&d.steps[j][start-1], acc, d.M)
		ms.replayed += len(kids) - start
	}
	for st := start; st < len(kids); st++ {
		acc, accShape, err = d.merge(j, st, kids[st], acc, accShape, &accNew, accPre, st == len(kids)-1, ar, sc, ms)
		if err != nil {
			return err
		}
	}
	d.retainShape(j, accShape)
	d.newCnt[j] = accNew
	d.preCnt[j] = append(d.preCnt[j][:0], accPre...)
	return nil
}

// childDims computes the accumulated subtree counts after folding child
// ch and the resulting table shape (backed by ar).
func (d *PowerDP) childDims(ch int, accNew int32, accPre []int32, ar *arena[int32]) (int32, []int32, shape, error) {
	outNew := accNew + d.newCnt[ch]
	outPre := ar.alloc(d.M)
	for i := range outPre {
		outPre[i] = accPre[i] + d.preCnt[ch][i]
	}
	if chMode0 := int(d.prob.Existing.Mode(ch)); chMode0 == 0 {
		outNew++
	} else {
		outPre[chMode0-1]++
	}
	outDims := ar.alloc(d.nf)
	d.nodeDims(outDims, outNew, outPre)
	outShape, err := fillShape(outDims, ar.alloc(d.nf))
	return outNew, outPre, outShape, err
}

// merge folds child ch — the st-th child of j — into the accumulated
// table of node j, updating the accumulated subtree counts in place.
// The last merge writes straight into j's retained final table;
// earlier ones use arena intermediates.
func (d *PowerDP) merge(j, st, ch int, acc []int32, accShape shape, accNew *int32, accPre []int32, last bool, ar *arena[int32], sc *bpScratch, ms *mergeStats) ([]int32, shape, error) {
	outNew, outPre, outShape, err := d.childDims(ch, *accNew, accPre, ar)
	if err != nil {
		return nil, shape{}, err
	}
	var out []int32
	if last {
		d.vals[j] = grown(d.vals[j], outShape.size)
		out = d.vals[j]
	} else {
		out = ar.alloc(outShape.size)
	}
	d.mergeInto(j, st, ch, acc, accShape, outShape, out, ar, sc, ms)
	*accNew = outNew
	copy(accPre, outPre)
	return out, outShape, nil
}

// mergeInto runs the actual table merge of child ch — the st-th child
// of j — into out (sized outShape.size), refreshing the step's
// provenance table.
func (d *PowerDP) mergeInto(j, st, ch int, acc []int32, accShape, outShape shape, out []int32, ar *arena[int32], sc *bpScratch, ms *mergeStats) {
	chShape := d.shapes[ch]
	chVals := d.vals[ch]
	chMode0 := int(d.prob.Existing.Mode(ch)) // 0 when ch is not pre-existing

	step := &d.steps[j][st]
	if d.noPre && int(outShape.dims[d.M-1]) >= minDenseWidth &&
		d.mergeCompressed(step, acc, accShape, chVals, chShape, outShape, out, sc, ms) {
		return
	}
	step.comp = false
	ms.cells += accShape.size * chShape.size

	for i := range out {
		out[i] = pUnreached
	}
	// Stale provenance cells are never read: the reconstruction only
	// follows cells whose value was written when the table was last
	// rebuilt, and every value write refreshes its provenance.
	step.prov = grown(step.prov, outShape.size)
	prov := step.prov
	for i := range prov {
		prov[i] = noProv
	}

	// Precompute the output-stride bump of placing the child's server
	// at each mode.
	placeBump := ar.alloc(d.M + 1)
	placeBump[0] = 0
	for m := 1; m <= d.M; m++ {
		if chMode0 == 0 {
			placeBump[m] = outShape.strides[d.fieldNew(m)]
		} else {
			placeBump[m] = outShape.strides[d.fieldReuse(chMode0, m)]
		}
	}
	d.mergeSequential(acc, accShape, chVals, chShape, outShape, out, prov, placeBump, ar)
}

// mergeSequential is the dense merge. It first compacts the child
// table into a list of its feasible cells (value <= W_M) in ascending
// flat order, each with its value, its offset in the output's stride
// space and the smallest mode whose capacity covers it (M+1 when none
// does, which places no server). The accumulated × child loop then
// reads that list: out[a-offset + c-offset] takes the merged load, and
// out[... + placeBump[m]] a server on the child at every mode m from
// the minimal one up. An accumulated cell's offset is the sum of two
// small projected tables (its prefix and its suffix fields), and its
// provenance bits are packed once per cell, outside the child loop.
//
// First writer of the minimal value wins (a strict < update). The outer
// loops walk the accumulated cells in ascending flat order, and the
// child list keeps ascending flat order, so (accumulated cell, child
// cell) pairs are still visited in ascending order — the order
// packProv encodes — and within a pair the merged load comes before
// the servers in ascending mode. Every cell therefore keeps the
// smallest writer that reaches its value, exactly as the full walk
// over both tables would. Skipping the infeasible cells of either side
// changes nothing: they never wrote a value.
func (d *PowerDP) mergeSequential(acc []int32, accShape shape, chVals []int32, chShape shape, outShape shape, out []int32, prov []uint64, placeBump []int32, ar *arena[int32]) {
	pm, wm, M := d.prob.Power, d.wm, int32(d.M)

	// Child side: project every cell, then compact the feasible ones in
	// place (entry k never overtakes flat index k).
	n := chShape.size
	cFlat, cVal, cOff, cMode := ar.alloc(n), ar.alloc(n), ar.alloc(n), ar.alloc(n)
	projectOffsets(chShape.dims, outShape.strides, cOff)
	k := 0
	for flat, cv := range chVals {
		if cv > wm {
			continue
		}
		mode := M + 1
		if m, ok := pm.ModeFor(int(cv)); ok {
			mode = int32(m)
		}
		cFlat[k], cVal[k], cOff[k], cMode[k] = int32(flat), cv, cOff[flat], mode
		k++
	}
	cFlat, cVal, cOff, cMode = cFlat[:k], cVal[:k], cOff[:k], cMode[:k]

	// Accumulated side: a cell's offset is its prefix fields' offset plus
	// its suffix fields' offset. Split at the field boundary that keeps
	// the two projected tables smallest (trailing fields are often unit
	// reuse axes, so a fixed split could cost a whole table's worth).
	split, inner := 0, accShape.size
	for f, lo := 0, accShape.size; f < len(accShape.dims); f++ {
		lo /= int(accShape.dims[f])
		if lo+accShape.size/lo < inner+accShape.size/inner {
			split, inner = f+1, lo
		}
	}
	hiOff, loOff := ar.alloc(accShape.size/inner), ar.alloc(inner)
	projectOffsets(accShape.dims[:split], outShape.strides[:split], hiOff)
	projectOffsets(accShape.dims[split:], outShape.strides[split:], loOff)

	for r, hb := range hiOff {
		for c, lb := range loOff {
			aFlat := r*inner + c
			a := acc[aFlat]
			if a > wm {
				continue
			}
			aBase := hb + lb
			aProv := uint64(aFlat) << 35
			room := wm - a
			for q, cv := range cVal {
				idx := aBase + cOff[q]
				p := aProv | uint64(cFlat[q])<<8
				if cv <= room && a+cv < out[idx] {
					out[idx] = a + cv
					prov[idx] = p
				}
				for m := cMode[q]; m <= M; m++ {
					if o := idx + placeBump[m]; a < out[o] {
						out[o] = a
						prov[o] = p | uint64(m)
					}
				}
			}
		}
	}
}

// paretoPrune keeps the non-dominated candidates of d.cands in d.front,
// sorted by ascending cost with strictly descending power. Costs within
// frontEps are treated as equal so that floating-point jitter in summed
// prices does not produce near-duplicate front points.
func (d *PowerDP) paretoPrune() {
	const frontEps = 1e-9
	front := d.front[:0]
	if len(d.cands) == 0 {
		d.front = front
		return
	}
	slices.SortFunc(d.cands, func(a, b frontEntry) int {
		if a.cost != b.cost {
			if a.cost < b.cost {
				return -1
			}
			return 1
		}
		if a.power != b.power {
			if a.power < b.power {
				return -1
			}
			return 1
		}
		return 0
	})
	bestPower := math.Inf(1)
	for _, c := range d.cands {
		if c.power >= bestPower-frontEps {
			continue
		}
		if n := len(front); n > 0 && c.cost <= front[n-1].cost+frontEps {
			// Same cost up to jitter but strictly less power:
			// replace the kept entry.
			front[n-1] = c
		} else {
			front = append(front, c)
		}
		bestPower = c.power
	}
	d.front = front
}

// Front returns the cost/power Pareto front, ascending in cost.
func (s *PowerSolver) Front() []ParetoPoint {
	return s.FrontInto(make([]ParetoPoint, 0, len(s.front)))
}

// FrontInto is Front with a caller-owned destination slice: the front is
// written into dst[:0] (growing it only when its capacity is too small)
// and returned, so per-solve front reads in sweep loops stay
// allocation-free once dst has grown to the high-water front size.
func (s *PowerSolver) FrontInto(dst []ParetoPoint) []ParetoPoint {
	dst = dst[:0]
	for _, f := range s.front {
		dst = append(dst, ParetoPoint{Cost: f.cost, Power: f.power})
	}
	return dst
}

// Best returns the minimal-power solution whose cost does not exceed
// bound, or found == false when the bound is unreachable. Among equal
// power values the cheaper solution wins.
func (s *PowerSolver) Best(bound float64) (*PowerResult, bool) {
	res, ok := s.BestInto(bound, nil)
	if !ok {
		return nil, false
	}
	return &res, true
}

// BestInto is Best with a caller-owned destination placement (allocated
// fresh when nil; reset first otherwise), enabling allocation-free
// sweeps over many cost bounds. The returned result's Placement field
// is dst. Like the flow engine's hot-path methods it panics on the
// programming error of a destination sized for a different tree; use
// Best for untrusted destinations.
func (s *PowerSolver) BestInto(bound float64, dst *tree.Replicas) (PowerResult, bool) {
	// The front is sorted by ascending cost with descending power, so
	// the best affordable entry is the last one within the bound.
	idx := sort.Search(len(s.front), func(i int) bool { return s.front[i].cost > bound }) - 1
	if idx < 0 {
		return PowerResult{}, false
	}
	return s.reconstruct(s.front[idx], dst), true
}

// MinPower returns the minimal-power solution regardless of cost (the
// plain MinPower objective, NP-complete for arbitrary M per Theorem 2).
func (s *PowerSolver) MinPower() *PowerResult {
	res, _ := s.Best(math.Inf(1))
	return res
}

// At reconstructs the i-th point of the Pareto front.
func (s *PowerSolver) At(i int) *PowerResult {
	res := s.reconstruct(s.front[i], nil)
	return &res
}

func (s *PowerSolver) reconstruct(f frontEntry, dst *tree.Replicas) PowerResult {
	if dst == nil {
		dst = tree.ReplicasOf(s.prob.Tree)
	} else {
		if dst.N() != s.prob.Tree.N() {
			panic(fmt.Sprintf("core: destination set covers %d nodes, tree has %d", dst.N(), s.prob.Tree.N()))
		}
		dst.Reset()
	}
	if f.rootMode != 0 {
		dst.Set(s.prob.Tree.Root(), f.rootMode)
	}
	s.rebuild(s.prob.Tree.Root(), f.rootCell, dst)
	return PowerResult{Placement: dst, Cost: f.cost, Power: f.power}
}

// rebuild unwinds the merge decisions of node j for the given flat
// cell, in reverse fold order — which at the root may be the
// volatility-derived permutation rather than child order.
func (s *PowerSolver) rebuild(j int, cell int32, placement *tree.Replicas) {
	steps := s.steps[j]
	kids := s.prob.Tree.Children(j)
	atRoot := len(s.rootOrder) == len(steps) && len(steps) > 0 && j == s.prob.Tree.Root()
	for q := len(steps) - 1; q >= 0; q-- {
		st := q
		if atRoot {
			st = s.rootOrder[q]
		}
		var p uint64
		if steps[st].comp {
			// Compressed merges materialise no provenance table; derive
			// this cell's decision from the step's row snapshots.
			p = steps[st].lazyProv(cell, s.prob.Power.Caps, s.prob.Power.M())
		} else {
			p = steps[st].prov[cell]
		}
		if p == noProv {
			panic(fmt.Sprintf("core: power reconstruction hit an unreached cell at node %d", j))
		}
		aPrev, cCell, mode := unpackProv(p)
		ch := kids[st]
		if mode != 0 {
			placement.Set(ch, mode)
		}
		s.rebuild(ch, cCell, placement)
		cell = aPrev
	}
	if cell != 0 {
		panic(fmt.Sprintf("core: power reconstruction reached invalid base cell %d at node %d", cell, j))
	}
}
