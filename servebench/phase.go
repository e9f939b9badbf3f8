package main

import (
	"encoding/json"
	"fmt"
	"time"

	"replicatree/internal/serve"
)

// phaseResult is one pass of a workload's traffic.
type phaseResult struct {
	closed  bool
	ops     []op     // the schedule (open loop) or the drifts sent (closed loop)
	results []result // one per request, in schedule order (open loop) or send order
	ticks   []serve.TickResult
}

// check parses every acknowledged drift response and requires every
// acknowledged eval response to conserve demand.
func (ph *phaseResult) check() error {
	for i, r := range ph.results {
		if !r.ok() {
			continue
		}
		switch r.kind {
		case opDrift:
			var tr serve.TickResult
			if err := json.Unmarshal(r.body, &tr); err != nil {
				return fmt.Errorf("drift response: %w", err)
			}
			if tr.Tick == 0 || tr.Requests < 1 {
				return fmt.Errorf("drift response names tick %d with %d requests", tr.Tick, tr.Requests)
			}
			ph.ticks = append(ph.ticks, tr)
			ph.results[i].tick = tr.Tick
		case opEval:
			if err := checkEval(r.body); err != nil {
				return err
			}
		}
	}
	return nil
}

// opCounts is the tally of one operation type.
type opCounts struct {
	attempted, ok, other, transport int
	status                          map[int]int // 429, 503 and 410 kept apart
}

func (ph *phaseResult) counts(k opKind) opCounts {
	c := opCounts{status: map[int]int{}}
	for _, r := range ph.results {
		if r.kind != k {
			continue
		}
		c.attempted++
		switch {
		case r.err != nil:
			c.transport++
		case r.ok():
			c.ok++
		case r.code == 429 || r.code == 503 || r.code == 410:
			c.status[r.code]++
		default:
			c.other++
		}
	}
	return c
}

func (ph *phaseResult) attempted() int { return len(ph.results) }

// failed counts non-2xx responses and transport errors.
func (ph *phaseResult) failed() int {
	n := 0
	for _, r := range ph.results {
		if !r.ok() {
			n++
		}
	}
	return n
}

// latencies returns the latencies in ms of the acknowledged requests
// the filter accepts.
func (ph *phaseResult) latencies(keep func(opKind) bool) []float64 {
	var out []float64
	for _, r := range ph.results {
		if r.ok() && keep(r.kind) {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// lateP99 is the 99th percentile of how late the generator sent.
func (ph *phaseResult) lateP99() float64 {
	late := make([]float64, len(ph.results))
	for i, r := range ph.results {
		late[i] = ms(r.late)
	}
	return quantile(late, 0.99)
}

// driftOKPerS is acknowledged drifts per second of the measured
// window, which ends when the last drift's response does: a backlog
// stretches it and lowers the rate.
func (ph *phaseResult) driftOKPerS() float64 {
	ok := 0
	var end time.Duration
	for _, r := range ph.results {
		if r.kind != opDrift {
			continue
		}
		end = max(end, r.done)
		if r.ok() {
			ok++
		}
	}
	if end <= 0 {
		return 0
	}
	return float64(ok) / end.Seconds()
}

func isDrift(k opKind) bool { return k == opDrift }
func isRead(k opKind) bool  { return k != opDrift }

// endToEnd computes the end-to-end metrics of a measured phase; rss is
// the process's peak resident set in MiB through set-up and the phase.
func endToEnd(ph *phaseResult, setupS []float64, rss float64) []metric {
	drift := ph.latencies(isDrift)
	read := ph.latencies(isRead)
	driftTail, readTail := tailOf(drift), tailOf(read)
	attempted := ph.attempted()
	// The tails and error_rate are printed but left out of the JSON
	// result, the set BENCHMARK.json gates. A tail rests on a run's ten
	// slowest samples; on a 2-vCPU virtual machine whose hypervisor
	// steals 0-20% of CPU time, its spread over ten runs reached
	// 0.27-0.49 of the median in crowded stretches, past the largest
	// bound a gated metric may have. error_rate is 0 on a healthy run;
	// the result's "failed" count carries it.
	return []metric{
		{name: "setup_s", value: median(setupS), unit: "s", note: fmt.Sprintf("median of %d loads", len(setupS))},
		{name: "drift_p50_ms", value: median(drift), unit: "ms", note: p50Note(drift)},
		{name: "drift_tail_ms", value: driftTail.Value, unit: "ms", note: tailNote(driftTail), printOnly: true},
		{name: "drift_ok_per_s", value: ph.driftOKPerS(), unit: "1/s"},
		// A workload without reads has no read latency to report.
		{name: "read_p50_ms", value: median(read), unit: "ms", note: p50Note(read), printOnly: len(read) == 0},
		{name: "read_tail_ms", value: readTail.Value, unit: "ms", note: tailNote(readTail), printOnly: true},
		{name: "error_rate", value: float64(ph.failed()) / float64(max(attempted, 1)), unit: "frac",
			note: fmt.Sprintf("%d of %d attempts failed", ph.failed(), attempted), printOnly: true},
		{name: "peak_rss_mb", value: rss, unit: "MiB"},
	}
}

func p50Note(xs []float64) string {
	if len(xs) == 0 {
		return "n=0: the workload sends no such requests"
	}
	return fmt.Sprintf("n=%d", len(xs))
}

func tailNote(t tail) string {
	if t.N == 0 {
		return "n=0: the workload sends no such requests"
	}
	return fmt.Sprintf("p%.2f (%d beyond), n=%d", t.Pct, t.Beyond, t.N)
}
