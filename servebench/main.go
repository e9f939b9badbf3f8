// Command servebench is the repository's benchmark: it drives the
// replicaserved daemon's HTTP API with seeded drift and read traffic
// and reports end-to-end metrics, or, with --trace 1, per-layer ones.
//
//	servebench --workload chain-qos-1e4 --seed 1 --seconds 40 --trace 0
//
// A run starts an in-process serve.Server behind a loopback listener
// with a journaling data directory, loads the workload's instance
// (several times, to time set-up), sends the workload's traffic from
// one process over at most nproc connections, and ends with a
// correctness gate. The last line of standard output is the result as
// one JSON object; the lines before it are the same numbers for a
// reader, with the run's context. BENCHMARK.json at the repository
// root lists the gated workloads and metrics; README.md describes them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// A run loads its instance at least minSetups times and, while the
// loads have taken less than setupBudget, up to maxSetups times;
// set-up time is the median of the loads. Cheap loads are repeated
// more, because one fsync of the base snapshot can double one of them.
const (
	minSetups   = 7
	maxSetups   = 21
	setupBudget = 2 * time.Second
)

// warmupDrifts is how many drifts run before timing starts, so the
// first with-pre tick of a chained instance and lazy solver buffers are
// not measured.
const warmupDrifts = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed of the generated traffic")
	seconds := fs.Int("seconds", 40, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	commit := fs.String("commit", "unknown", "source revision to stamp on the result")
	workdir := fs.String("workdir", ".bench_build/servebench", "directory for the run's data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	r := &runner{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, commit: *commit, out: stdout}
	if err := r.bench(*workdir); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	return 0
}

// runner is one benchmark run.
type runner struct {
	w      workload
	seed   uint64
	window time.Duration
	traced bool
	commit string
	out    io.Writer

	e *env
	c *client
}

func (r *runner) bench(workdir string) (err error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	conns := runtime.NumCPU()
	loadBody, err := r.w.loadBody(instanceID)
	if err != nil {
		return err
	}
	var setupS []float64
	var spent time.Duration
	for len(setupS) < maxSetups && (len(setupS) < minSetups || spent < setupBudget) {
		if r.e != nil {
			if err := r.e.close(r.c); err != nil {
				return err
			}
		}
		// Every load starts from a collected heap, not from the garbage
		// of the previous one.
		runtime.GC()
		e, c, took, err := startEnv(filepath.Join(runDir, fmt.Sprint("data", len(setupS))), loadBody, conns)
		if err != nil {
			return err
		}
		r.e, r.c = e, c
		setupS = append(setupS, took.Seconds())
		spent += took
	}
	defer func() {
		if cerr := r.e.close(r.c); err == nil {
			err = cerr
		}
	}()

	rc := newRunContext(r.w, r.seed, r.commit, r.e.dataDir)
	ctxLine, err := json.Marshal(map[string]runContext{"context": rc})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "servebench workload=%s seed=%d seconds=%g trace=%v\n", r.w.name, r.seed, r.window.Seconds(), r.traced)
	fmt.Fprintln(r.out, string(ctxLine))

	warm, err := r.warmup()
	if err != nil {
		return err
	}
	runtime.GC()
	if r.traced {
		return r.benchTraced(warm)
	}
	ph, err := r.phase(streamMeasured, r.window)
	if err != nil {
		return err
	}
	// Read before the gate, which rebuilds a second session from the
	// snapshot in this process.
	rss := peakRSSMB()
	if err := gate(r.e, r.c, r.w.power); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	m := endToEnd(ph, setupS, rss)
	r.printOps("load", ph)
	return r.report(m, ph.attempted(), ph.failed())
}

// warmup sends a few drifts and one read of every kind the workload
// uses, untimed, and returns them.
func (r *runner) warmup() ([]op, error) {
	ds := r.w.drifts(r.seed, streamWarmup)
	ops := []op{}
	for i := 0; i < warmupDrifts; i++ {
		ops = append(ops, op{kind: opDrift, drift: ds.next()})
	}
	for _, k := range r.w.readKinds() {
		ops = append(ops, op{kind: k, down: []int{1}})
	}
	for _, o := range ops {
		code, body, _, err := r.c.send(o)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", opNames[o.kind], err)
		}
		if code != 200 {
			return nil, fmt.Errorf("warm-up %s: status %d: %s", opNames[o.kind], code, body)
		}
	}
	return ops, nil
}

// phase runs the workload's traffic for one window on the live
// instance and checks every response that carries a verifiable result.
func (r *runner) phase(stream int, window time.Duration) (*phaseResult, error) {
	ph := &phaseResult{closed: r.w.closed}
	if r.w.closed {
		ph.results, ph.ops = runClosed(r.w.drifts(r.seed, stream), opFront, window, r.c.send)
	} else {
		ph.ops = r.w.schedule(r.seed, stream, window)
		ph.results = runOpen(ph.ops, runtime.NumCPU(), r.c.send)
	}
	if err := ph.check(); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return ph, nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, not in the JSON result
	// printOnly metrics are printed for a reader but left out of the
	// JSON result.
	printOnly bool
}

// report prints the metrics for a reader, then the JSON result line.
func (r *runner) report(ms []metric, attempted, failed int) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]val, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(r.out, "metric %-40s %14.6f %-6s %s\n", m.name, m.value, m.unit, m.note)
		if !m.printOnly {
			out[m.name] = val{m.value, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{true, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, string(line))
	return nil
}

// printOps prints attempts and failures per operation type.
func (r *runner) printOps(label string, ph *phaseResult) {
	for k := opKind(0); k < numOpKinds; k++ {
		c := ph.counts(k)
		if c.attempted == 0 {
			continue
		}
		fmt.Fprintf(r.out, "ops %s %-9s attempted=%d ok=%d 429=%d 503=%d 410=%d other=%d transport=%d\n",
			label, opNames[k], c.attempted, c.ok, c.status[429], c.status[503], c.status[410], c.other, c.transport)
	}
	if !ph.closed {
		fmt.Fprintf(r.out, "loadgen %s late_p99_ms=%.3f (how late the open-loop generator sent; a late generator invalidates drift_*)\n",
			label, ph.lateP99())
	}
}

// peakRSSMB returns the peak resident set of this process in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
