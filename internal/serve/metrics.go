package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tickBuckets are the upper bounds of the tick-latency histogram, in
// seconds. The range spans a warm sub-millisecond incremental tick up
// to a cold multi-second mega-tree solve.
var tickBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numTickBuckets must equal len(tickBuckets); a test pins it.
const numTickBuckets = 16

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation and scraping. Counts are per bucket (not cumulative);
// rendering accumulates them into the Prometheus le-form.
type histogram struct {
	counts [numTickBuckets + 1]atomic.Uint64 // one per finite bucket + Inf
	count  atomic.Uint64
	sumNS  atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(tickBuckets, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
}

// write renders the histogram in Prometheus text format under name,
// with labels (no braces; may be empty) applied to every series.
func (h *histogram) write(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, ub := range tickBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, ub, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count.Load())
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
	}
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (q in [0,1]), or 0 with no observations and
// +Inf when the quantile falls past the last finite bucket. It is the
// same estimate a Prometheus histogram_quantile over the scraped
// buckets would produce, exposed for in-process reporting.
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i, ub := range tickBuckets {
		cum += h.counts[i].Load()
		if cum > rank {
			return ub
		}
	}
	return math.Inf(1)
}

// sessionMetrics accumulates one session's operational counters. The
// tick leader writes them outside any lock the scraper needs; all
// fields are atomics so scrapes are tear-free under -race.
type sessionMetrics struct {
	ticks         atomic.Uint64
	tickFailures  atomic.Uint64
	tickAborts    atomic.Uint64 // ticks aborted by deadline or Close
	driftRequests atomic.Uint64
	driftEdits    atomic.Uint64
	driftChanged  atomic.Uint64
	shed          atomic.Uint64 // drift submissions shed by admission control
	evals         atomic.Uint64
	snapshots     atomic.Uint64

	// Write-ahead-log counters (only move when a journal is attached).
	walRecords  atomic.Uint64
	walBytes    atomic.Uint64
	walFailures atomic.Uint64

	// Accumulated SolveStats across ticks, per solver where the
	// counter is solver-specific.
	recomputed   [nSolvers]atomic.Uint64
	rootRepriced atomic.Uint64
	foldReplayed atomic.Uint64
	mergeCells   atomic.Uint64
	maskedNodes  atomic.Uint64

	tickSeconds     histogram
	walFsyncSeconds histogram
}

// Solver indices for per-solver metric labels.
const (
	solverMinCost = iota
	solverPower
	solverQoS
	nSolvers
)

var solverNames = [nSolvers]string{"mincost", "power", "qos"}

// httpMetrics counts served requests by route pattern and status code.
type httpMetrics struct {
	mu sync.Mutex
	m  map[string]uint64 // key: `method="GET",path="/healthz",code="200"`
}

func newHTTPMetrics() *httpMetrics { return &httpMetrics{m: make(map[string]uint64)} }

func (h *httpMetrics) inc(method, pattern string, code int) {
	key := fmt.Sprintf("method=%q,path=%q,code=\"%d\"", method, pattern, code)
	h.mu.Lock()
	h.m[key]++
	h.mu.Unlock()
}

func (h *httpMetrics) write(w io.Writer) {
	h.mu.Lock()
	keys := make([]string, 0, len(h.m))
	for k := range h.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("replicaserved_http_requests_total{%s} %d", k, h.m[k])
	}
	h.mu.Unlock()
	fmt.Fprintln(w, "# HELP replicaserved_http_requests_total Served HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE replicaserved_http_requests_total counter")
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// writeMetrics renders the whole metric surface in Prometheus text
// exposition format.
func (s *Server) writeMetrics(w io.Writer) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sess := make([]*Session, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		sess = append(sess, s.sessions[id])
	}
	s.mu.RUnlock()

	fmt.Fprintln(w, "# HELP replicaserved_instances Currently loaded instances.")
	fmt.Fprintln(w, "# TYPE replicaserved_instances gauge")
	fmt.Fprintf(w, "replicaserved_instances %d\n", len(sess))
	s.httpMet.write(w)

	counter := func(name, help string, get func(m *sessionMetrics) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, ss := range sess {
			fmt.Fprintf(w, "%s{instance=%q} %d\n", name, ss.id, get(&ss.met))
		}
	}
	counter("replicaserved_ticks_total", "Completed drift ticks (including failed ones).",
		func(m *sessionMetrics) uint64 { return m.ticks.Load() })
	counter("replicaserved_tick_failures_total", "Ticks whose re-solve returned an error.",
		func(m *sessionMetrics) uint64 { return m.tickFailures.Load() })
	counter("replicaserved_tick_aborts_total", "Ticks aborted by the per-tick deadline or instance deletion.",
		func(m *sessionMetrics) uint64 { return m.tickAborts.Load() })
	counter("replicaserved_drift_shed_total", "Drift submissions shed by admission control (HTTP 429).",
		func(m *sessionMetrics) uint64 { return m.shed.Load() })
	counter("replicaserved_wal_records_total", "Drift batches journaled to the write-ahead log.",
		func(m *sessionMetrics) uint64 { return m.walRecords.Load() })
	counter("replicaserved_wal_bytes_total", "Bytes appended to the write-ahead log.",
		func(m *sessionMetrics) uint64 { return m.walBytes.Load() })
	counter("replicaserved_wal_failures_total", "Ticks failed because their journal append did not complete.",
		func(m *sessionMetrics) uint64 { return m.walFailures.Load() })
	counter("replicaserved_drift_requests_total", "Accepted drift requests (several may coalesce into one tick).",
		func(m *sessionMetrics) uint64 { return m.driftRequests.Load() })
	counter("replicaserved_drift_edits_total", "Demand edits applied by drift ticks.",
		func(m *sessionMetrics) uint64 { return m.driftEdits.Load() })
	counter("replicaserved_drift_changed_total", "Demand edits that actually changed a value.",
		func(m *sessionMetrics) uint64 { return m.driftChanged.Load() })
	counter("replicaserved_evals_total", "Flow evaluations served.",
		func(m *sessionMetrics) uint64 { return m.evals.Load() })
	counter("replicaserved_snapshots_total", "Session snapshots written.",
		func(m *sessionMetrics) uint64 { return m.snapshots.Load() })
	counter("replicaserved_root_cells_repriced_total", "Power root-scan cells repriced (see SolveStats).",
		func(m *sessionMetrics) uint64 { return m.rootRepriced.Load() })
	counter("replicaserved_fold_suffix_replayed_total", "Merge fold suffix steps replayed (see SolveStats).",
		func(m *sessionMetrics) uint64 { return m.foldReplayed.Load() })
	counter("replicaserved_merge_cells_scanned_total", "Merge table cells scanned (see SolveStats).",
		func(m *sessionMetrics) uint64 { return m.mergeCells.Load() })
	counter("replicaserved_masked_nodes_total", "Node-ticks solved with the node held down by a fault mask.",
		func(m *sessionMetrics) uint64 { return m.maskedNodes.Load() })

	fmt.Fprintln(w, "# HELP replicaserved_tables_recomputed_total DP node tables rebuilt, by solver.")
	fmt.Fprintln(w, "# TYPE replicaserved_tables_recomputed_total counter")
	for _, ss := range sess {
		for si, name := range solverNames {
			if !ss.hasSolver(si) {
				continue
			}
			fmt.Fprintf(w, "replicaserved_tables_recomputed_total{instance=%q,solver=%q} %d\n",
				ss.id, name, ss.met.recomputed[si].Load())
		}
	}

	fmt.Fprintln(w, "# HELP replicaserved_tick_seconds Wall-clock latency of drift ticks (apply + re-solve + publish).")
	fmt.Fprintln(w, "# TYPE replicaserved_tick_seconds histogram")
	for _, ss := range sess {
		ss.met.tickSeconds.write(w, "replicaserved_tick_seconds", fmt.Sprintf("instance=%q", ss.id))
	}

	fmt.Fprintln(w, "# HELP replicaserved_wal_fsync_seconds Latency of write-ahead-log append+fsync per tick.")
	fmt.Fprintln(w, "# TYPE replicaserved_wal_fsync_seconds histogram")
	for _, ss := range sess {
		ss.met.walFsyncSeconds.write(w, "replicaserved_wal_fsync_seconds", fmt.Sprintf("instance=%q", ss.id))
	}

	fmt.Fprintln(w, "# HELP replicaserved_drift_queue_depth Drift submissions currently queued or solving.")
	fmt.Fprintln(w, "# TYPE replicaserved_drift_queue_depth gauge")
	for _, ss := range sess {
		fmt.Fprintf(w, "replicaserved_drift_queue_depth{instance=%q} %d\n", ss.id, ss.QueueDepth())
	}

	fmt.Fprintln(w, "# HELP replicaserved_tick Current tick number of the published snapshot.")
	fmt.Fprintln(w, "# TYPE replicaserved_tick gauge")
	for _, ss := range sess {
		if sn := ss.Snapshot(); sn != nil {
			fmt.Fprintf(w, "replicaserved_tick{instance=%q} %d\n", ss.id, sn.Tick)
		}
	}
	fmt.Fprintln(w, "# HELP replicaserved_servers Equipped servers of the published placement, by solver.")
	fmt.Fprintln(w, "# TYPE replicaserved_servers gauge")
	for _, ss := range sess {
		if sn := ss.Snapshot(); sn != nil {
			fmt.Fprintf(w, "replicaserved_servers{instance=%q,solver=\"mincost\"} %d\n", ss.id, sn.Servers)
			if sn.Power != nil {
				fmt.Fprintf(w, "replicaserved_servers{instance=%q,solver=\"power\"} %d\n", ss.id, sn.Power.Servers)
			}
			if sn.QoS != nil {
				fmt.Fprintf(w, "replicaserved_servers{instance=%q,solver=\"qos\"} %d\n", ss.id, sn.QoS.Servers)
			}
		}
	}
	fmt.Fprintln(w, "# HELP replicaserved_cost Reconfiguration cost of the published placement.")
	fmt.Fprintln(w, "# TYPE replicaserved_cost gauge")
	for _, ss := range sess {
		if sn := ss.Snapshot(); sn != nil {
			fmt.Fprintf(w, "replicaserved_cost{instance=%q} %g\n", ss.id, sn.Cost)
		}
	}
	fmt.Fprintln(w, "# HELP replicaserved_power Power draw of the published min-power placement.")
	fmt.Fprintln(w, "# TYPE replicaserved_power gauge")
	for _, ss := range sess {
		if sn := ss.Snapshot(); sn != nil && sn.Power != nil {
			fmt.Fprintf(w, "replicaserved_power{instance=%q} %g\n", ss.id, sn.Power.Power)
		}
	}
}
