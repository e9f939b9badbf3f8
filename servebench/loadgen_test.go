package main

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// A stalled first request must show in the latency of every request
// queued behind it, counted from when each was due, while the
// generator itself stays on time.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		iv    = 10 * time.Millisecond
		stall = 200 * time.Millisecond
		n     = 10
	)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opDrift, due: time.Duration(i) * iv}
	}
	var calls atomic.Int32
	send := func(o op) (int, []byte, int, error) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return 200, nil, 0, nil
	}
	res := runOpen(ops, 1, send)

	if res[0].lat < stall {
		t.Fatalf("stalled request latency %v, want >= %v", res[0].lat, stall)
	}
	// With one connection, request i cannot start before the stall
	// ends, so its latency from due is at least stall - due.
	for i := 1; i < n; i++ {
		want := stall - ops[i].due
		if res[i].lat < want {
			t.Errorf("request %d (due %v): latency %v, want >= %v", i, ops[i].due, res[i].lat, want)
		}
		// A latency measured from the send instead would be the
		// service time alone, far below the stall.
		if res[i].lat < stall/2 && ops[i].due < stall/2 {
			t.Errorf("request %d: latency %v ignores the wait behind the stall", i, res[i].lat)
		}
	}
	for i, r := range res {
		if r.late > stall/2 {
			t.Errorf("request %d launched %v late; the generator must not wait for the stall", i, r.late)
		}
	}
}

func TestDriftOKPerSUsesLastDriftResponse(t *testing.T) {
	ph := &phaseResult{results: []result{
		{kind: opDrift, code: 200, done: 1 * time.Second},
		{kind: opDrift, code: 200, done: 2 * time.Second},
		{kind: opDrift, code: 429, done: 3 * time.Second},
		{kind: opPlacement, code: 200, done: 9 * time.Second},
	}}
	if got := ph.driftOKPerS(); got != 2.0/3 {
		t.Fatalf("driftOKPerS = %v, want 2 acknowledged over a 3 s window", got)
	}
	c := ph.counts(opDrift)
	if c.attempted != 3 || c.ok != 2 || c.status[429] != 1 {
		t.Fatalf("drift counts = %+v", c)
	}
	if ph.failed() != 1 {
		t.Fatalf("failed = %d, want 1", ph.failed())
	}
}

func TestScheduleIsSeededAndOrdered(t *testing.T) {
	w, err := lookupWorkload("chain-qos-1e4")
	if err != nil {
		t.Fatal(err)
	}
	a := w.schedule(7, streamMeasured, 2*time.Second)
	b := w.schedule(7, streamMeasured, 2*time.Second)
	c := w.schedule(8, streamMeasured, 2*time.Second)
	perS := w.driftPerS
	for _, r := range w.reads {
		perS += r.perS
	}
	if len(a) != len(b) || len(a) != int(2*perS) {
		t.Fatalf("schedule has %d ops", len(a))
	}
	same := true
	for i := range a {
		if a[i].due != b[i].due || a[i].drift != b[i].drift || a[i].kind != b[i].kind {
			t.Fatalf("op %d differs between two schedules of one seed", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		if a[i].drift != c[i].drift || a[i].due != c[i].due {
			same = false
		}
		if a[i].kind == opEval && len(a[i].down) != w.evalDown {
			t.Fatalf("eval takes down %v, want %d nodes", a[i].down, w.evalDown)
		}
		for k, j := range a[i].down {
			if j <= 0 || j >= w.nodes || slices.Contains(a[i].down[:k], j) {
				t.Fatalf("eval takes down %v: a root, out-of-range or repeated node", a[i].down)
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced the same schedule")
	}
	// The twin draws the measured drifts from the drift stream alone.
	ds := w.drifts(7, streamMeasured)
	for _, o := range a {
		if o.kind == opDrift && o.drift != ds.next() {
			t.Fatal("schedule drifts differ from the drift stream")
		}
	}
}
