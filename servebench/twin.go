package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/serve"
	"replicatree/internal/tree"
)

// twin replays a drift stream through the layers' public functions,
// in-process and one request per tick, holding the same retained state
// a serve.Session holds (see Session.solveLocked): a MinCostSolver,
// plus a PowerDP and QoSSolver when the workload has them, and the
// chained pre-existing sets. Each call is a span, so the trace splits
// a tick into its layers.
type twin struct {
	w    workload
	t    *tree.Tree
	cons *tree.Constraints
	mc   *core.MinCostSolver
	pdp  *core.PowerDP
	qs   *core.QoSSolver
	eng  *tree.Engine
	pm   power.Model

	modal cost.Modal
	// cur and powerCur point at the buffer holding the latest MinCost
	// and power placement; exist/powerEx are the pre-existing sets the
	// next solve starts from.
	exist, scratch, cur        *tree.Replicas
	powerEx, powerSc, powerCur *tree.Replicas
	qosRs                      *tree.Replicas
	best                       core.PowerResult
	front                      []core.ParetoPoint
	tick                       uint64
}

// twinTick is what one twin tick did.
type twinTick struct {
	changed int
	mincost core.SolveStats
	power   *core.SolveStats
	qos     *core.SolveStats
	front   int // Pareto front points
	bytes   int // encoded snapshot size
	spanID  int // the twin.tick span
}

func newTwin(w workload) (*twin, error) {
	t, cons, err := w.instance()
	if err != nil {
		return nil, err
	}
	n := t.N()
	tw := &twin{w: w, t: t, cons: cons, mc: core.NewMinCostSolver(t), eng: tree.NewEngine(t),
		exist: tree.NewReplicas(n), scratch: tree.NewReplicas(n)}
	if w.power {
		tw.pm = exp3Power()
		tw.modal = cost.UniformModal(tw.pm.M(), exp3Cost.Create, exp3Cost.Delete, exp3Change)
		tw.pdp = core.NewPowerDP(t)
		tw.powerEx, tw.powerSc = tree.NewReplicas(n), tree.NewReplicas(n)
	}
	if cons != nil {
		tw.qs = core.NewQoSSolver(t)
		tw.qosRs = tree.NewReplicas(n)
	}
	// Same worker count as the server's sessions (ServerOptions.Workers
	// 0: every CPU).
	tw.mc.SetWorkers(0)
	if tw.pdp != nil {
		tw.pdp.SetWorkers(0)
	}
	if tw.qs != nil {
		tw.qs.SetWorkers(0)
	}
	// The cold solve the server runs at load; not part of the replay.
	if _, err := tw.step(nil, nil); err != nil {
		return nil, fmt.Errorf("twin cold solve: %w", err)
	}
	return tw, nil
}

// close stops the solvers' worker pools.
func (tw *twin) close() {
	tw.mc.SetWorkers(1)
	if tw.pdp != nil {
		tw.pdp.SetWorkers(1)
	}
	if tw.qs != nil {
		tw.qs.SetWorkers(1)
	}
}

// step applies one drift (none for the cold solve), re-solves every
// retained solver and publishes the snapshot, under a twin.tick span
// with one child span per layer call. The snapshot is then encoded
// outside the tick, as a placement read does.
func (tw *twin) step(tr *tracer, d *redraw) (twinTick, error) {
	var tt twinTick
	var sn *serve.Snapshot
	var err error
	tt.spanID = tr.do("twin.tick", 0, func(tick int) {
		if err = tw.solve(tr, tick, d, &tt); err != nil {
			return
		}
		tr.do("serve.snapshot.publish", tick, func(int) { sn = tw.snapshot(&tt) })
	})
	if err != nil {
		return tt, err
	}
	tr.do("serve.snapshot.encode", 0, func(int) {
		var b []byte
		b, err = json.Marshal(sn)
		tt.bytes = len(b)
	})
	return tt, err
}

// snapshot builds the read model the server publishes after a tick.
func (tw *twin) snapshot(tt *twinTick) *serve.Snapshot {
	sn := &serve.Snapshot{Tick: tw.tick, Changed: tt.changed, Modes: modesOf(tw.cur), Servers: tw.cur.Count(),
		Stats: serve.TickStats{MinCost: tt.mincost, Power: tt.power, QoS: tt.qos}}
	if tw.pdp != nil {
		sn.Power = &serve.PowerView{Modes: modesOf(tw.powerCur), Servers: tw.powerCur.Count(),
			Cost: tw.best.Cost, Power: tw.best.Power, Front: append([]core.ParetoPoint(nil), tw.front...)}
	}
	if tw.qs != nil {
		sn.QoS = &serve.QoSView{Modes: modesOf(tw.qosRs), Servers: tw.qosRs.Count()}
	}
	return sn
}

func (tw *twin) solve(tr *tracer, tick int, d *redraw, tt *twinTick) error {
	if d != nil {
		tr.do("tree.apply", tick, func(int) {
			cfg := tree.GenConfig{ReqMin: d.ReqMin, ReqMax: d.ReqMax}
			tt.changed = tree.DriftRequests(tw.t, cfg, d.Prob, rng.New(d.Seed))
		})
		tw.tick++
	}
	var err error
	tr.do("core.mincost.solve", tick, func(int) {
		_, err = tw.mc.SolveInto(tw.exist, tw.w.w, exp3Cost, tw.scratch)
	})
	if err != nil {
		return fmt.Errorf("mincost: %w", err)
	}
	tt.mincost = tw.mc.Stats()
	tw.cur = tw.scratch
	if tw.w.chain {
		tw.exist, tw.scratch = tw.scratch, tw.exist
	}

	if tw.pdp != nil {
		var ps *core.PowerSolver
		tr.do("core.power.solve", tick, func(int) {
			ps, err = tw.pdp.Solve(core.PowerProblem{Existing: tw.powerEx, Power: tw.pm, Cost: tw.modal})
		})
		if err != nil {
			return fmt.Errorf("power: %w", err)
		}
		ok := false
		tr.do("core.power.best", tick, func(int) {
			tw.best, ok = ps.BestInto(math.Inf(1), tw.powerSc)
		})
		if !ok {
			return fmt.Errorf("power: %w", core.ErrInfeasible)
		}
		tr.do("core.power.front", tick, func(int) {
			tw.front = ps.FrontInto(tw.front[:0])
		})
		st := tw.pdp.Stats()
		tt.power = &st
		tt.front = len(tw.front)
		tw.powerCur = tw.powerSc
		if tw.w.chain {
			tw.powerEx, tw.powerSc = tw.powerSc, tw.powerEx
		}
	}

	if tw.qs != nil {
		tr.do("core.qos.solve", tick, func(int) {
			_, err = tw.qs.Solve(tw.w.w, tw.cons, tw.qosRs)
		})
		if err != nil {
			return fmt.Errorf("qos: %w", err)
		}
		st := tw.qs.Stats()
		tt.qos = &st
	}
	return nil
}

// eval evaluates the current placement like GET eval does.
func (tw *twin) eval(tr *tracer, down []int) tree.MaskedResult {
	n := tw.t.N()
	m := &downMask{down: make([]bool, n)}
	for _, j := range down {
		m.down[j] = true
	}
	var r tree.MaskedResult
	tr.do("tree.eval", 0, func(int) {
		r = tw.eng.EvalUniformMasked(tw.cur, tree.PolicyMultiple, tw.w.w, m)
	})
	return r
}

// downMask is a fault mask with some nodes down and every link up.
type downMask struct{ down []bool }

func (m *downMask) NodeUp(j int) bool { return !m.down[j] }
func (m *downMask) LinkUp(int) bool   { return true }

// modesOf copies a replica set's modes into a JSON-friendly []int, as
// the server's snapshot does.
func modesOf(r *tree.Replicas) []int {
	out := make([]int, r.N())
	for j := range out {
		out[j] = int(r.Mode(j))
	}
	return out
}

// replay runs the twin over ops in order until budget has passed (0:
// no limit): a drift is one tick, an eval one evaluation, other reads
// are skipped (the tick already encodes the snapshot they would serve).
func (tw *twin) replay(tr *tracer, ops []op, budget time.Duration) ([]twinTick, error) {
	var ticks []twinTick
	start := time.Now()
	for _, o := range ops {
		if budget > 0 && time.Since(start) >= budget {
			break
		}
		switch o.kind {
		case opDrift:
			d := o.drift
			tt, err := tw.step(tr, &d)
			if err != nil {
				return ticks, err
			}
			ticks = append(ticks, tt)
		case opEval:
			tw.eval(tr, o.down)
		}
	}
	return ticks, nil
}
