package core

import (
	"fmt"

	"replicatree/internal/tree"
)

// This file implements the polynomial-time exact algorithm of
// Rehn-Sonigo, "Optimal Replica Placement in Tree Networks with QoS and
// Bandwidth Constraints and the Closest Allocation Policy" (arXiv
// 0706.3350): minimal replica counting under the closest policy with
// per-client QoS (distance) bounds and per-link bandwidths.
//
// The dynamic program exploits the closest policy's structure: all flow
// escaping a subtree is absorbed at the same node — the first equipped
// proper ancestor of the subtree's root. A subtree state is therefore
// fully described by (replicas used, escaped flow, depth requirement),
// where the requirement is the minimal depth the absorbing ancestor may
// have without violating any contributing client's QoS bound. For a
// fixed replica count and requirement, less escaped flow is always at
// least as good (capacity, bandwidth and downstream sums are all
// monotone in it), so each node keeps one table
//
//	tab[r][L] = minimal escaped flow of the subtree using r replicas,
//	            requiring the first equipped proper ancestor to sit at
//	            depth >= some bound <= L
//
// built bottom-up with a knapsack merge over the children (checking
// each child link's bandwidth as its flow crosses) and two closures per
// node: equip it (all traversing flow absorbed, load <= W, nothing
// escapes) or let the flow pass (possible only while every contributing
// client's QoS still tolerates a higher server).
//
// Every per-node table is a flat row-major slice (row r at offset
// r*rowWidth, the same index-addressed layout the shape type gives the
// power tables) held in a retained buffer so it can carry over to the
// next solve; only the knapsack-merge intermediates live in the
// solver's per-solve arena.

const qInf = int(1) << 60

const (
	qNone uint8 = iota
	qEquip
	qEscape
)

// MinReplicasQoS returns a replica set of minimal cardinality serving
// every client under the closest policy with uniform capacity W, every
// client within its QoS bound and every link within its bandwidth
// (every replica at mode 1). A nil constraint set solves the classical
// problem (and then agrees with greedy.MinReplicas, which the tests
// check). It returns ErrInfeasible when no placement at all serves the
// instance.
//
// Time and memory are O(N²·H) in the worst case (H the tree height),
// the polynomial bound of the paper: comfortably fast on the
// evaluation's 100-node trees, but not intended for degenerate
// path-shaped instances with thousands of nodes.
//
// MinReplicasQoS builds a fresh solver per call; hot loops sweeping
// many constraint sets on the same tree should hold a QoSSolver
// instead.
func MinReplicasQoS(t *tree.Tree, W int, c *tree.Constraints) (*tree.Replicas, error) {
	return NewQoSSolver(t).Solve(W, c, nil)
}

// QoSSolver solves constrained replica-counting instances on one tree.
// Merge intermediates live in a flat arena and every node's tables in
// retained per-node buffers, all grown monotonically to the high-water
// mark of past solves, so after two warm-up solves of an instance shape
// every further Solve with a caller-owned destination performs no heap
// allocation.
//
// The retained tables make solves incremental: demand edits through
// tree.Tree.SetDemand dirty only the touched node's ancestor chain,
// while a different capacity W or constraint set (a different
// *tree.Constraints, or the same one mutated — detected through
// Constraints.Generation) invalidates every table. Use Invalidate
// after mutations the solver cannot observe, and Reset to rebind it to
// another tree while keeping its buffers.
//
// A solver is not safe for concurrent use; run one per goroutine.
type QoSSolver struct {
	solverCore[int]
	eng           *tree.Engine
	unconstrained *tree.Constraints

	// Per node, retained across solves: replica capacity of the subtree
	// including the node, its flat tab/choice block ((size+1) rows of
	// width max(depth-1,0)+1), and — indexed by the CHILD's id — the
	// flat split table of the merge that folded that child into its
	// parent (rows of width depth(child), the parent's accumulator
	// width).
	size    []int
	tabs    [][]int
	choices [][]uint8
	splits  [][]int

	// Per-child compressed fold-step snapshots, one column per
	// requirement (indexed by the CHILD's id, like splits).
	snaps []foldSnap

	// Incremental bookkeeping.
	lastW    int
	lastC    *tree.Constraints
	lastCGen uint64

	// Per solve:
	w int
	c *tree.Constraints
}

// NewQoSSolver returns a reusable constrained-counting solver for t.
func NewQoSSolver(t *tree.Tree) *QoSSolver {
	s := &QoSSolver{}
	s.init(s)
	s.Reset(t)
	return s
}

// Reset rebinds the solver to tree t, keeping every retained buffer as
// scratch for the new tree, so sweeping many trees of similar shape
// through one solver skips most warm-up allocations. The first solve
// after a Reset recomputes every table.
func (s *QoSSolver) Reset(t *tree.Tree) {
	n := t.N()
	s.bind(t)
	if s.eng == nil {
		s.eng = tree.NewEngine(t)
	} else {
		s.eng.Reset(t)
	}
	if s.unconstrained == nil {
		s.unconstrained = tree.NewConstraints(t)
	} else {
		s.unconstrained.Reset(t)
	}
	s.size = grown(s.size, n)
	s.tabs = grownKeep(s.tabs, n)
	s.choices = grownKeep(s.choices, n)
	s.splits = grownKeep(s.splits, n)
	s.snaps = grownKeep(s.snaps, n)
	s.lastC = nil
}

// Solve runs the dynamic program for capacity W under constraints c
// (nil = unconstrained) and writes the minimal placement into dst
// (allocated fresh when nil; reset first otherwise). The returned set
// is dst.
func (s *QoSSolver) Solve(W int, c *tree.Constraints, dst *tree.Replicas) (*tree.Replicas, error) {
	t := s.t
	if W <= 0 {
		return nil, fmt.Errorf("core: non-positive capacity %d", W)
	}
	if err := c.Validate(t); err != nil {
		return nil, err
	}
	if c == nil {
		c = s.unconstrained
	}
	if dst == nil {
		dst = tree.ReplicasOf(t)
	} else {
		if dst.N() != t.N() {
			return nil, fmt.Errorf("core: destination set covers %d nodes, tree has %d", dst.N(), t.N())
		}
		dst.Reset()
	}
	s.w, s.c = W, c

	// Demands dirty their ancestor chain; a different capacity or
	// constraint set reshapes every table. Constraint identity is the
	// pointer plus its mutation generation, so in-place edits between
	// solves are caught too.
	s.fullSolve = W != s.lastW || c != s.lastC || c.Generation() != s.lastCGen || !s.track.solved
	s.track.mark(t, s.fullSolve)
	s.track.propagate(t)

	if err := s.pass(cancelStride, false); err != nil {
		// Cancelled between checkpoints: nothing was committed, so the
		// next solve re-dirties and recomputes a superset of the
		// interrupted work (see cancel.go).
		return nil, err
	}

	s.lastW, s.lastC, s.lastCGen = W, c, c.Generation()
	s.track.commit(t)

	root := t.Root()
	rootTab := s.tabs[root] // width 1: the root sits at depth 0
	best := -1
	for r := 0; r <= s.size[root]; r++ {
		if rootTab[r] == 0 {
			best = r
			break
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("core: %w", ErrInfeasible)
	}
	s.build(dst, root, best, 0)
	// The tables are exact by construction; re-validate as a cheap
	// guard against implementation drift.
	if err := s.eng.ValidateUniformConstrained(dst, tree.PolicyClosest, W, c); err != nil {
		return nil, fmt.Errorf("core: MinReplicasQoS produced an invalid placement (bug): %w", err)
	}
	return dst, nil
}

// tabRows returns the row width of node j's tab/choice block: an
// escaping flow must be absorbed by a proper ancestor, so requirements
// live in 0..max(depth(j)-1, 0).
func (s *QoSSolver) tabRows(j int) int { return max(s.t.Depth(j)-1, 0) + 1 }

// solveNode rebuilds node j's table from its children's, carving
// knapsack-merge intermediates out of worker w's arena.
func (s *QoSSolver) solveNode(j, w int) error {
	ar, sc, ms := &s.arenas[w], &s.bps[w], &s.mstats[w]
	t := s.t
	ar.reset()
	D := t.Depth(j)
	kids := t.Children(j)
	accRows := D + 1 // child requirements live in 0..D

	// Fold restart point. The knapsack merge never reads node j's own
	// demand (only the closures below do), so a node dirtied by its
	// own clients alone replays zero fold steps; a dirty child
	// restarts the fold at its position, decoding the preceding
	// step's retained output snapshot as the accumulator. Both need
	// the restart predecessor to have run compressed — dense steps
	// keep no snapshot — and any input change to a prefix step dirties
	// its child, which moves the restart before the change.
	start := s.foldStart(j, len(kids), false, func(q int) bool { return s.track.dirty[kids[q]] },
		func(q int) bool { return s.snaps[kids[q]].comp })

	// Knapsack merge of the children: acc cell (r, L) is the
	// minimal sum of child flows using r replicas below, every
	// child bound <= L and every child link within its bandwidth.
	// Every child's tab block has row width accRows too (its depth
	// is D+1), so rows align without re-indexing.
	var acc []int
	sz := 0
	if start == 0 {
		acc = ar.alloc(accRows) // the single r = 0 row, all zero
		for L := range acc {
			acc[L] = 0
		}
	} else {
		for _, ch := range kids[:start] {
			sz += s.size[ch]
		}
		acc = ar.alloc((sz + 1) * accRows)
		decodeSnap(&s.snaps[kids[start-1]], acc, sz+1, accRows, qInf)
		ms.replayed += len(kids) - start
	}
	for st := start; st < len(kids); st++ {
		child := kids[st]
		csz := s.size[child]
		bw := s.c.Bandwidth(child)
		ctab := s.tabs[child]
		next := ar.alloc((sz + csz + 1) * accRows)
		step := &s.snaps[child]
		fs := s.fold(child, accRows)
		if sz+csz+1 >= minDenseWidth &&
			fs.step(step, acc, ctab, next, int32(sz), int32(csz), int32(sz+csz), sc, ms) {
			acc = next
			sz += csz
			continue
		}
		step.comp = false
		ms.cells += (sz + 1) * (csz + 1) * accRows
		for i := range next {
			next[i] = qInf
		}
		// Stale split cells are never read: build only follows
		// cells whose next value was written when the parent's
		// table was last rebuilt, and every value write refreshes
		// its split.
		s.splits[child] = grown(s.splits[child], (sz+csz+1)*accRows)
		spl := s.splits[child]
		for r1 := 0; r1 <= sz; r1++ {
			for r2 := 0; r2 <= csz; r2++ {
				o := (r1 + r2) * accRows
				for L := 0; L < accRows; L++ {
					a := acc[r1*accRows+L]
					f := ctab[r2*accRows+L]
					if a >= qInf || f >= qInf || (bw >= 0 && f > bw) {
						continue
					}
					if v := a + f; v < next[o+L] {
						next[o+L] = v
						spl[o+L] = r2
					}
				}
			}
		}
		acc = next
		sz += csz
	}
	s.size[j] = sz + 1

	own := t.ClientSum(j)
	ownL := 0 // minimal server depth the node's own clients tolerate
	for k, dem := range t.Clients(j) {
		if dem > 0 {
			if l := s.c.MinServerDepth(j, k, D); l > ownL {
				ownL = l
			}
		}
	}

	rows := s.tabRows(j)
	s.tabs[j] = grown(s.tabs[j], (s.size[j]+1)*rows)
	s.choices[j] = grown(s.choices[j], (s.size[j]+1)*rows)
	tab, ch := s.tabs[j], s.choices[j]
	for r := 0; r <= s.size[j]; r++ {
		o := r * rows
		for L := 0; L < rows; L++ {
			tab[o+L] = qInf
		}
		// Equip j: the whole traversing flow is absorbed here, so
		// nothing escapes and no requirement remains (own clients
		// are 1 hop away, within any positive QoS bound).
		if r >= 1 {
			if a := acc[(r-1)*accRows+D]; a < qInf && own+a <= s.w {
				for L := 0; L < rows; L++ {
					tab[o+L] = 0
					ch[o+L] = qEquip
				}
			}
		}
		// Let the flow pass: only while every contributing client
		// tolerates a server at depth <= D-1.
		if j != t.Root() {
			for L := ownL; L < rows && r <= sz; L++ {
				if a := acc[r*accRows+L]; a < qInf {
					if f := own + a; f < tab[o+L] {
						tab[o+L] = f
						ch[o+L] = qEscape
					}
				}
			}
		} else if own == 0 && r <= sz && acc[r*accRows] == 0 && tab[o] > 0 {
			// The root has no ancestor: passing is only "nothing to
			// pass".
			tab[o] = 0
			ch[o] = qEscape
		}
	}
	return nil
}

// fold is the budget-axis fold of the knapsack merge of child, the
// parent's accumulator having accRows requirement columns. Sums at or
// past qInf are infeasible in the dense kernel (they never beat its
// qInf fill), so the fold caps them out; child flows over the link's
// bandwidth never merge.
func (s *QoSSolver) fold(child, accRows int) foldSpec[int] {
	f := foldSpec[int]{cols: accRows, inval: qInf, loadCap: int64(qInf) - 1, chCap: bpInfVal}
	if bw := s.c.Bandwidth(child); bw >= 0 {
		f.chCap = int64(bw)
	}
	return f
}

// build reconstructs the placement behind tab cell (r, L) of node j
// into res.
func (s *QoSSolver) build(res *tree.Replicas, j, r, L int) {
	kids := s.t.Children(j)
	accRows := s.t.Depth(j) + 1
	accR, accRow := r, L
	if s.choices[j][r*s.tabRows(j)+L] == qEquip {
		res.Set(j, 1)
		accR, accRow = r-1, s.t.Depth(j)
	}
	pre := 0
	for _, child := range kids {
		pre += s.size[child]
	}
	for i := len(kids) - 1; i >= 0; i-- {
		child := kids[i]
		pre -= s.size[child]
		var r2 int
		if step := &s.snaps[child]; step.comp {
			fs := s.fold(child, accRows)
			n1, _ := fs.split(step, s.tabs[child], accRow, int32(accR), int32(pre), int32(s.size[child]))
			r2 = accR - int(n1)
		} else {
			r2 = s.splits[child][accR*accRows+accRow]
		}
		s.build(res, child, r2, accRow)
		accR -= r2
	}
}
