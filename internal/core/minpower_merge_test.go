package core

import (
	"testing"

	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// TestPowerDenseMergeMatchesOdometerWalk pins the dense power merge
// kernel cell for cell: on random with-pre and no-pre merges with two
// and three modes, the value table and the provenance table that
// PowerDP.mergeInto writes must equal those of denseMergeOracle, the
// straightforward walk over every (accumulated cell, child cell) pair.
// The draws cover leaf (single-cell) children, child tables with
// unreached cells and — by lifting the solver's load bound above W_M,
// which a real solve never does — feasible child cells that no mode
// covers.
func TestPowerDenseMergeMatchesOdometerWalk(t *testing.T) {
	models := []power.Model{
		power.MustNew([]int{5, 10}, 10, 3),
		power.MustNew([]int{3, 6, 9}, 10, 2),
	}
	// Two-node tree: every merge folds child 1 into root 0.
	b := tree.NewBuilder()
	b.AddNode(b.Root())
	tr := b.MustBuild()

	var leaves, unreached, uncovered, withPre int
	for trial := 0; trial < 400; trial++ {
		src := rng.Derive(1414, trial)
		pm := models[trial%len(models)]
		M := pm.M()
		pre := trial%4 >= 2

		d := NewPowerDP(tr)
		existing := tree.ReplicasOf(tr)
		chMode0 := 0
		if pre && src.Bool(0.5) {
			chMode0 = 1 + src.IntN(M)
			existing.Set(1, uint8(chMode0))
		}
		d.prob = PowerProblem{Tree: tr, Existing: existing, Power: pm}
		d.M, d.nf, d.wm = M, M+M*M, int32(pm.MaxCap())
		d.noPre = false // the dense kernel even where compression could run
		lifted := trial%5 == 4
		if lifted {
			d.wm += 3
		}

		// Random subtree counts; a leaf child has none.
		accNew, chNew := int32(src.IntN(4)), int32(src.IntN(3))
		accPre, chPre := make([]int32, M), make([]int32, M)
		if pre {
			// One initial mode per side keeps the M² reuse fields (and
			// the oracle's pair walk) small.
			accPre[src.IntN(M)] = int32(1 + src.IntN(2))
			chPre[src.IntN(M)] = int32(src.IntN(2))
		}
		if trial%3 == 0 {
			chNew = 0
			clear(chPre)
		}
		accShape := powerTestShape(d, accNew, accPre)
		chShape := powerTestShape(d, chNew, chPre)
		d.shapes[1], d.newCnt[1], d.preCnt[1] = chShape, chNew, chPre

		acc := randomPowerTable(src, accShape.size, d.wm)
		ch := randomPowerTable(src, chShape.size, d.wm)
		d.vals[1] = ch

		ar := &d.arenas[0]
		ar.reset()
		_, _, outShape, err := d.childDims(1, accNew, accPre, ar)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int32, outShape.size)
		d.mergeInto(0, 0, 1, acc, accShape, outShape, out, ar, &d.bps[0], &d.mstats[0])
		step := &d.steps[0][0]
		if step.comp {
			t.Fatalf("trial %d: merge ran compressed", trial)
		}

		wantOut, wantProv := denseMergeOracle(d, acc, accShape, ch, chShape, outShape, chMode0)
		for i := range wantOut {
			if out[i] != wantOut[i] || step.prov[i] != wantProv[i] {
				t.Fatalf("trial %d (M=%d, pre=%v, child mode %d): cell %d = (%d, %#x), oracle (%d, %#x)",
					trial, M, pre, chMode0, i, out[i], step.prov[i], wantOut[i], wantProv[i])
			}
		}

		if chShape.size == 1 {
			leaves++
		}
		if pre {
			withPre++
		}
		for _, v := range ch {
			if v > d.wm {
				unreached++
			} else if int(v) > pm.MaxCap() {
				uncovered++
			}
		}
	}
	if leaves == 0 || unreached == 0 || uncovered == 0 || withPre == 0 {
		t.Fatalf("draws missed a case: %d leaf children, %d unreached and %d uncovered child cells, %d with-pre merges",
			leaves, unreached, uncovered, withPre)
	}
}

// powerTestShape returns the table shape of a subtree holding newCnt
// non-pre nodes and preCnt[i] pre-existing nodes of initial mode i+1.
func powerTestShape(d *PowerDP, newCnt int32, preCnt []int32) shape {
	dims := make([]int32, d.nf)
	d.nodeDims(dims, newCnt, preCnt)
	sh, err := newShape(dims)
	if err != nil {
		panic(err)
	}
	return sh
}

// randomPowerTable draws a table of n cells: about a quarter unreached,
// the rest uniform loads in [0, wm].
func randomPowerTable(src *rng.Source, n int, wm int32) []int32 {
	tab := make([]int32, n)
	for i := range tab {
		if src.Bool(0.25) {
			tab[i] = pUnreached
		} else {
			tab[i] = int32(src.IntN(int(wm) + 1))
		}
	}
	return tab
}

// denseMergeOracle is the dense power merge written as the plain
// nested walk: every (accumulated cell, child cell) pair in ascending
// flat order, both skipped when above the load bound, output positions
// from coordinates recovered by division, the child's server modes from
// power.Model.ModeFor, and a strict "smaller value wins" update, so the
// first writer of a cell's minimal value keeps its provenance.
func denseMergeOracle(d *PowerDP, acc []int32, accShape shape, ch []int32, chShape, outShape shape, chMode0 int) ([]int32, []uint64) {
	out := make([]int32, outShape.size)
	prov := make([]uint64, outShape.size)
	for i := range out {
		out[i], prov[i] = pUnreached, noProv
	}
	update := func(idx, v int32, p uint64) {
		if v < out[idx] {
			out[idx], prov[idx] = v, p
		}
	}
	M := d.M
	bump := func(m int) int32 {
		if chMode0 == 0 {
			return outShape.strides[m-1]
		}
		return outShape.strides[M+(chMode0-1)*M+m-1]
	}
	for aFlat, a := range acc {
		if a > d.wm {
			continue
		}
		aOut := projectByDivision(accShape, outShape.strides, aFlat)
		for cFlat, cv := range ch {
			if cv > d.wm {
				continue
			}
			base := aOut + projectByDivision(chShape, outShape.strides, cFlat)
			if a+cv <= d.wm {
				update(base, a+cv, packProv(aFlat, cFlat, 0))
			}
			if minMode, ok := d.prob.Power.ModeFor(int(cv)); ok {
				for m := minMode; m <= M; m++ {
					update(base+bump(m), a, packProv(aFlat, cFlat, uint8(m)))
				}
			}
		}
	}
	return out, prov
}
