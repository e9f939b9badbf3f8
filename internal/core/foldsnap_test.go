package core

import (
	"slices"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// These tests pin the retained fold snapshots (foldSnap) that suffix
// replays restart from and lazy reconstruction reads. After every solve
// of a drift sequence at the forced compression width, every retained
// compressed step of MinCost (E = ∅), QoS and no-pre power must hold
// runs in normal form — starts strictly increasing and below the
// column width, values strictly decreasing — and decoding its output
// runs must reproduce the dense table the step wrote: the dense fold of
// its decoded input with the child's retained table (MinCost, QoS), the
// input snapshot of the next step, and the node's retained final table
// after its last step.

// checkSnapRuns asserts the breakpoint normal form of one run list of a
// column of the given width.
func checkSnapRuns(t *testing.T, what string, runs []bpRun, width int) {
	t.Helper()
	for p, r := range runs {
		if r.start < 0 || int(r.start) >= width {
			t.Fatalf("%s: run %d starts at %d, column width %d: %v", what, p, r.start, width, runs)
		}
		if p > 0 && (r.start <= runs[p-1].start || r.val >= runs[p-1].val) {
			t.Fatalf("%s: runs %d-%d break the normal form: %v", what, p-1, p, runs)
		}
	}
}

// decodeIn expands the input snapshot of a fold step like decodeSnap
// expands its output.
func decodeIn[T int32 | int](f *foldSnap, dst []T, n, cols int, inval T) {
	decodeSnap(&foldSnap{outOff: f.inOff, outRuns: f.inRuns}, dst, n, cols, inval)
}

func TestFoldSnapshotsMinCost(t *testing.T) {
	setDenseWidth(t, forceCompressed)
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	steps := 0
	for i := 0; i < reuseTreeCount(t); i++ {
		src := rng.Derive(239, i)
		tr := tree.MustGenerate(reuseGen(i), src)
		s := NewMinCostSolver(tr)
		for tick := 0; tick < 8; tick++ {
			driftClients(tr, 1+src.IntN(4), src)
			if _, err := s.Solve(nil, 10, c); err != nil {
				continue
			}
			steps += checkMinCostSnaps(t, s)
		}
	}
	if steps == 0 {
		t.Fatal("no compressed MinCost step was checked")
	}
}

// checkMinCostSnaps checks every compressed step of s and returns how
// many it checked.
func checkMinCostSnaps(t *testing.T, s *MinCostSolver) int {
	t.Helper()
	checked := 0
	for j := 0; j < s.t.N(); j++ {
		kids := s.t.Children(j)
		for st, ch := range kids {
			step := &s.steps[j][st]
			if !step.comp {
				continue
			}
			accN := int32(0)
			if st > 0 {
				accN = s.steps[j][st-1].dimN
			}
			if step.dimE != 0 || len(step.inOff) != 2 || len(step.outOff) != 2 {
				t.Fatalf("node %d step %d: compressed step with dimE %d and %d/%d offsets",
					j, st, step.dimE, len(step.inOff), len(step.outOff))
			}
			checkSnapRuns(t, "mincost in", step.in(0), int(accN)+1)
			checkSnapRuns(t, "mincost out", step.out(0), int(step.dimN)+1)
			acc := make([]int32, accN+1)
			decodeIn(&step.foldSnap, acc, len(acc), 1, invalid)
			got := make([]int32, step.dimN+1)
			decodeSnap(&step.foldSnap, got, len(got), 1, invalid)

			// The dense fold: no-place pairs within W, and equipping the
			// child keeps the acc value one server further.
			want := make([]int32, step.dimN+1)
			for k := range want {
				want[k] = invalid
			}
			put := func(k, v int32) {
				if k <= step.dimN && (want[k] == invalid || v < want[k]) {
					want[k] = v
				}
			}
			chv := s.vals[ch][:s.dimN[ch]+1]
			for n1, a := range acc {
				for nc, cv := range chv {
					if a == invalid || cv == invalid {
						continue
					}
					if a+cv <= s.w {
						put(int32(n1+nc), a+cv)
					}
					put(int32(n1+nc+1), a)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("node %d step %d: decoded output %v, dense fold %v", j, st, got, want)
			}
			if st > 0 && s.steps[j][st-1].comp {
				prev := make([]int32, accN+1)
				decodeSnap(&s.steps[j][st-1].foldSnap, prev, len(prev), 1, invalid)
				if !slices.Equal(prev, acc) {
					t.Fatalf("node %d step %d: input %v, previous output %v", j, st, acc, prev)
				}
			}
			if st == len(kids)-1 && !slices.Equal(got, s.vals[j][:s.dimN[j]+1]) {
				t.Fatalf("node %d: last step output %v, final table %v", j, got, s.vals[j])
			}
			checked++
		}
	}
	return checked
}

func TestFoldSnapshotsQoS(t *testing.T) {
	setDenseWidth(t, forceCompressed)
	steps := 0
	for i := 0; i < reuseTreeCount(t); i++ {
		src := rng.Derive(241, i)
		tr := tree.MustGenerate(reuseGen(i), src)
		cons := tree.NewConstraints(tr)
		cons.SetUniformQoS(tr, 4)
		s := NewQoSSolver(tr)
		for tick := 0; tick < 8; tick++ {
			driftClients(tr, 1+src.IntN(4), src)
			if tick == 3 {
				// Capped links exercise the dropped leading child runs.
				for b := 0; b < 3; b++ {
					cons.SetBandwidth(1+src.IntN(tr.N()-1), 4+src.IntN(10))
				}
			}
			if _, err := s.Solve(10, cons, nil); err != nil {
				continue
			}
			steps += checkQoSSnaps(t, s)
		}
	}
	if steps == 0 {
		t.Fatal("no compressed QoS step was checked")
	}
}

// checkQoSSnaps checks every compressed step of s and returns how many
// it checked.
func checkQoSSnaps(t *testing.T, s *QoSSolver) int {
	t.Helper()
	checked := 0
	for j := 0; j < s.t.N(); j++ {
		cols := s.t.Depth(j) + 1
		sz := 0
		for st, child := range s.t.Children(j) {
			csz := s.size[child]
			snap := &s.snaps[child]
			if !snap.comp {
				sz += csz
				continue
			}
			if len(snap.inOff) != cols+1 || len(snap.outOff) != cols+1 {
				t.Fatalf("node %d child %d: %d/%d offsets for %d columns", j, child, len(snap.inOff), len(snap.outOff), cols)
			}
			for L := 0; L < cols; L++ {
				checkSnapRuns(t, "qos in", snap.in(L), sz+1)
				checkSnapRuns(t, "qos out", snap.out(L), sz+csz+1)
			}
			acc := make([]int, (sz+1)*cols)
			decodeIn(snap, acc, sz+1, cols, qInf)
			got := make([]int, (sz+csz+1)*cols)
			decodeSnap(snap, got, sz+csz+1, cols, qInf)

			// The dense knapsack fold, dropping over-bandwidth flows.
			want := make([]int, len(got))
			for k := range want {
				want[k] = qInf
			}
			bw, ctab := s.c.Bandwidth(child), s.tabs[child]
			for r1 := 0; r1 <= sz; r1++ {
				for r2 := 0; r2 <= csz; r2++ {
					for L := 0; L < cols; L++ {
						a, f := acc[r1*cols+L], ctab[r2*cols+L]
						if a >= qInf || f >= qInf || (bw >= 0 && f > bw) {
							continue
						}
						if o := (r1+r2)*cols + L; a+f < want[o] {
							want[o] = a + f
						}
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("node %d child %d: decoded output %v, dense fold %v", j, child, got, want)
			}
			if st > 0 {
				if prev := &s.snaps[s.t.Children(j)[st-1]]; prev.comp {
					pd := make([]int, len(acc))
					decodeSnap(prev, pd, sz+1, cols, qInf)
					if !slices.Equal(pd, acc) {
						t.Fatalf("node %d child %d: input %v, previous output %v", j, child, acc, pd)
					}
				}
			}
			sz += csz
			checked++
		}
	}
	return checked
}

func TestFoldSnapshotsPowerNoPre(t *testing.T) {
	setDenseWidth(t, forceCompressed)
	pm := powerModel2()
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	steps := 0
	for i := 0; i < reuseTreeCount(t)/2; i++ {
		src := rng.Derive(251, i)
		tr := tree.MustGenerate(tree.PowerConfig(18+i%10), src)
		d := NewPowerDP(tr)
		prob := PowerProblem{Tree: tr, Existing: tree.ReplicasOf(tr), Power: pm, Cost: cm}
		for tick := 0; tick < 6; tick++ {
			driftClients(tr, 1+src.IntN(3), src)
			if _, err := d.Solve(prob); err != nil {
				continue
			}
			steps += checkPowerSnaps(t, d)
		}
	}
	if steps == 0 {
		t.Fatal("no compressed power step was checked")
	}
}

// checkPowerSnaps checks every compressed step of d and returns how many
// it checked. Each "column" of a power snapshot is one n_M row of the
// table; the root is checked for normal form only, since its fold may
// run in the volatility order and keeps its own partial tables.
func checkPowerSnaps(t *testing.T, d *PowerDP) int {
	t.Helper()
	checked := 0
	root := d.t.Root()
	for j := 0; j < d.t.N(); j++ {
		kids := d.t.Children(j)
		for st := range kids {
			step := &d.steps[j][st]
			if !step.comp {
				continue
			}
			for r := 0; r+1 < len(step.inOff); r++ {
				checkSnapRuns(t, "power in", step.in(r), int(step.accLen))
			}
			for r := 0; r+1 < len(step.outOff); r++ {
				checkSnapRuns(t, "power out", step.out(r), int(step.outLen))
			}
			checked++
			if j == root {
				continue
			}
			got := make([]int32, (len(step.outOff)-1)*int(step.outLen))
			decodeStep(step, got, d.M)
			var want []int32
			if st == len(kids)-1 {
				want = d.vals[j][:d.shapes[j].size]
			} else if next := &d.steps[j][st+1]; next.comp {
				// The next step's input snapshot encodes the table this
				// step wrote.
				in := pStep{foldSnap: foldSnap{outOff: next.inOff, outRuns: next.inRuns}, outLen: next.accLen}
				want = make([]int32, (len(next.inOff)-1)*int(next.accLen))
				decodeStep(&in, want, d.M)
			} else {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("node %d step %d: decoded output %v, dense table %v", j, st, got, want)
			}
		}
	}
	return checked
}
