package core

import (
	"fmt"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

func TestPackProvRoundTrip(t *testing.T) {
	cases := []struct {
		a, c int
		m    uint8
	}{
		{0, 0, 0},
		{1, 2, 3},
		{maxTableCells - 1, maxTableCells - 1, 255},
		{12345, 678, 2},
	}
	for _, c := range cases {
		a, cc, m := unpackProv(packProv(c.a, c.c, c.m))
		if int(a) != c.a || int(cc) != c.c || m != c.m {
			t.Fatalf("pack(%d,%d,%d) round-tripped to (%d,%d,%d)", c.a, c.c, c.m, a, cc, m)
		}
	}
	// The packing preserves the sequential scan order.
	if packProv(1, 0, 5) <= packProv(0, 99, 0) {
		t.Fatal("accumulated cell must dominate the order")
	}
	if packProv(3, 1, 0) <= packProv(3, 0, 255) {
		t.Fatal("child cell must dominate the mode")
	}
}

// solvePowerWorkers solves p on a fresh PowerDP running the given
// number of subtree-parallel workers, releasing its pool afterwards.
func solvePowerWorkers(t *testing.T, p PowerProblem, workers int) *PowerSolver {
	t.Helper()
	dp := NewPowerDP(p.Tree)
	dp.SetWorkers(workers)
	defer dp.SetWorkers(1)
	s, err := dp.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelPowerMatchesSequential runs the wave-parallel bottom-up
// pass (SetWorkers(8)) on with-pre instances and checks the entire
// solver output — front and every reconstructed placement — against the
// sequential run.
func TestParallelPowerMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel-vs-sequential comparison is slow")
	}
	pm := power.MustNew([]int{5, 10}, 12.5, 3)
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	for seed := uint64(0); seed < 3; seed++ {
		src := rng.Derive(seed, 80)
		// 60-node trees with pre-existing servers produce wide waves of
		// large with-pre merges.
		tr := tree.MustGenerate(tree.PowerConfig(60), src)
		ex, _ := tree.RandomReplicas(tr, 6, 2, src)
		p := PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm}
		frontsEqual(t, fmt.Sprintf("seed %d", seed), solvePowerWorkers(t, p, 1), solvePowerWorkers(t, p, 8))
	}
}

// TestParallelPowerSmallInstances runs SetWorkers(8) on a 15-node
// no-pre instance, whose waves mostly stay below the pool's inline
// threshold, and checks it against the sequential run.
func TestParallelPowerSmallInstances(t *testing.T) {
	pm := power.MustNew([]int{5, 10}, 12.5, 3)
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	src := rng.New(81)
	tr := tree.MustGenerate(tree.PowerConfig(15), src)
	p := PowerProblem{Tree: tr, Power: pm, Cost: cm}
	frontsEqual(t, "small instance", solvePowerWorkers(t, p, 1), solvePowerWorkers(t, p, 8))
}

// TestParallelPowerWideStar runs SetWorkers(8) on the star topology,
// whose single wave of leaves is the widest dispatch a tree can offer,
// with pre-existing servers among the leaves.
func TestParallelPowerWideStar(t *testing.T) {
	if testing.Short() {
		t.Skip("wide star comparison is slow")
	}
	b := tree.NewBuilder()
	src := rng.New(83)
	for i := 1; i < 120; i++ {
		leaf := b.AddNode(b.Root())
		b.AddClient(leaf, src.Between(1, 5))
	}
	tr := b.MustBuild()
	pm := power.MustNew([]int{5, 10}, 12.5, 3)
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	ex, _ := tree.RandomReplicas(tr, 4, 2, src)
	p := PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm}
	frontsEqual(t, "wide star", solvePowerWorkers(t, p, 1), solvePowerWorkers(t, p, 8))
}
