package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// benchTraced is the traced variant of a run. It measures a shorter
// untraced reference phase, then the measured phase with every request
// traced (client span, and server span through the timing middleware),
// scrapes /metrics, runs the correctness gate, and finally replays the
// measured phase's drift stream through the twin, one request per
// tick. It reports the per-layer metrics.
func (r *runner) benchTraced(warm []op) error {
	// The reference phase only anchors trace.overhead_frac, and the
	// twin needs only enough ticks for stable medians: a quarter and a
	// half of the window keep a traced run, twin replay included, well
	// inside the time a run may take.
	ref, err := r.phase(streamReference, r.window/4)
	if err != nil {
		return err
	}
	tr := newTracer()
	mw := newHTTPSpans(r.e.srv.Handler(), tr)
	r.e.spans.Store(mw)
	r.c.tr = tr
	ph, err := r.phase(streamMeasured, r.window)
	r.c.tr = nil
	r.e.spans.Store(nil)
	if err != nil {
		return err
	}
	scraped, err := r.c.call(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := gate(r.e, r.c, r.w.power); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}

	// The twin runs after the load phase, never during it. It first
	// replays the warm-up and reference drifts untraced, so it traces
	// the measured stream from the demands the server had.
	tw, err := newTwin(r.w)
	if err != nil {
		return err
	}
	var ticks []twinTick
	for _, ops := range [][]op{warm, ref.ops} {
		if _, err = tw.replay(nil, ops, 0); err != nil {
			break
		}
	}
	if err == nil {
		ticks, err = tw.replay(tr, ph.ops, r.window/2)
	}
	tw.close()
	if err != nil {
		return fmt.Errorf("twin replay: %w", err)
	}

	spans := tr.snapshot()
	linkRequests(spans)
	r.printOps("reference", ref)
	r.printOps("traced", ph)
	r.printSelfTimes(spans)
	m := perLayer(ph, ref, spans, mw, parseMetrics(scraped), ticks)
	return r.report(m, ref.attempted()+ph.attempted(), ref.failed()+ph.failed())
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(ph, ref *phaseResult, spans []span, mw *httpSpans, prom map[string]float64, ticks []twinTick) []metric {
	byName := map[string][]float64{} // span durations in ms
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		byID[s.ID] = s
	}

	// Request-linked pairs: the client span and the server span of the
	// same request.
	var netMS []float64
	handlerOf := map[int]span{} // client span id -> server span
	for _, s := range spans {
		if c, ok := byID[s.Parent]; ok && strings.HasPrefix(s.Name, "serve.http.") && strings.HasPrefix(c.Name, "client.") {
			netMS = append(netMS, ms(c.dur()-s.dur()))
			handlerOf[c.ID] = s
		}
	}

	// Session ticks from the drift responses, each tick once.
	tookMS := map[uint64]float64{}
	for _, t := range ph.ticks {
		tookMS[t.Tick] = float64(t.TookNS) / 1e6
	}
	var tickMS []float64
	for _, v := range tookMS {
		tickMS = append(tickMS, v)
	}
	var waitMS []float64
	for _, res := range ph.results {
		if h, ok := handlerOf[res.reqID]; ok && res.kind == opDrift && res.ok() {
			waitMS = append(waitMS, ms(h.dur())-tookMS[res.tick])
		}
	}

	// Twin layer spans; the layer spans of one tick are its children.
	covers := map[int]float64{}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && p.Name == "twin.tick" {
			covers[p.ID] += ms(s.dur())
		}
	}
	var coverMS []float64
	var mcRecomp, mcFrac, mcCells, mcRows, mcFold, changed []float64
	var pCells, pScanned, pRetained, pFront, qRecomp, qCells []float64
	var scanned, repriced, bytesOut float64
	for _, t := range ticks {
		coverMS = append(coverMS, covers[t.spanID])
		changed = append(changed, float64(t.changed))
		mc := t.mincost
		mcRecomp = append(mcRecomp, float64(mc.Recomputed))
		mcFrac = append(mcFrac, float64(mc.Recomputed)/float64(max(mc.Nodes, 1)))
		mcCells = append(mcCells, float64(mc.MergeCellsScanned))
		mcRows = append(mcRows, float64(mc.RowsCompressed))
		mcFold = append(mcFold, float64(mc.FoldSuffixReplayed))
		if p := t.power; p != nil {
			pCells = append(pCells, float64(p.MergeCellsScanned))
			pScanned = append(pScanned, float64(p.RootCellsScanned))
			pRetained = append(pRetained, float64(p.RootMergeRetained))
			pFront = append(pFront, float64(t.front))
			scanned += float64(p.RootCellsScanned)
			repriced += float64(p.RootCellsRepriced)
		}
		if q := t.qos; q != nil {
			qRecomp = append(qRecomp, float64(q.Recomputed))
			qCells = append(qCells, float64(q.MergeCellsScanned))
		}
		bytesOut = float64(t.bytes)
	}

	tickP50 := quantile(tickMS, 0.5)
	coverage := 0.0
	if tickP50 > 0 {
		coverage = median(coverMS) / tickP50
	}
	overhead := 0.0
	if refP50 := median(ref.latencies(isDrift)); refP50 > 0 {
		overhead = median(ph.latencies(isDrift))/refP50 - 1
	}
	repricedFrac := 0.0
	if scanned > 0 {
		repricedFrac = repriced / scanned
	}
	ratio := func(num, den string) float64 {
		if prom[den] == 0 {
			return 0
		}
		return prom[num] / prom[den]
	}
	requestsPerTick := 0.0
	if len(tookMS) > 0 {
		requestsPerTick = float64(len(ph.ticks)) / float64(len(tookMS))
	}
	p50 := func(name string) float64 { return quantile(byName[name], 0.5) }
	p99 := func(name string) float64 { return quantile(byName[name], 0.99) }
	late := 0.0
	if !ph.closed {
		late = ph.lateP99()
	}

	return []metric{
		{name: "loadgen.late_p99_ms", value: late, unit: "ms"},
		{name: "serve.http.drift_ms_p50", value: p50("serve.http.drift"), unit: "ms"},
		{name: "serve.http.placement_ms_p50", value: p50("serve.http.placement"), unit: "ms"},
		{name: "serve.http.front_ms_p50", value: p50("serve.http.front"), unit: "ms"},
		{name: "serve.http.eval_ms_p50", value: p50("serve.http.eval"), unit: "ms"},
		{name: "serve.http.resp_bytes.placement", value: median(mw.respBytes["placement"]), unit: "bytes"},
		{name: "net.client_minus_handler_ms_p50", value: median(netMS), unit: "ms"},
		{name: "serve.session.tick_ms_p50", value: tickP50, unit: "ms", note: fmt.Sprintf("%d ticks", len(tickMS))},
		{name: "serve.session.tick_ms_p99", value: quantile(tickMS, 0.99), unit: "ms"},
		{name: "serve.session.requests_per_tick", value: requestsPerTick, unit: "count"},
		{name: "serve.session.wait_ms_p50", value: median(waitMS), unit: "ms"},
		{name: "serve.session.shed_total", value: prom["replicaserved_drift_shed_total"], unit: "count"},
		{name: "serve.session.aborts_total", value: prom["replicaserved_tick_aborts_total"], unit: "count"},
		{name: "serve.wal.fsync_ms_mean", value: 1000 * ratio("replicaserved_wal_fsync_seconds_sum", "replicaserved_wal_fsync_seconds_count"),
			unit: "ms", note: "this machine's filesystem, not a device"},
		{name: "serve.wal.bytes_per_record", value: ratio("replicaserved_wal_bytes_total", "replicaserved_wal_records_total"), unit: "bytes"},
		{name: "serve.snapshot.encode_ms_p50", value: p50("serve.snapshot.encode"), unit: "ms"},
		{name: "serve.snapshot.bytes", value: bytesOut, unit: "bytes"},
		{name: "tree.apply_ms_p50", value: p50("tree.apply"), unit: "ms"},
		{name: "tree.changed_per_tick", value: mean(changed), unit: "count"},
		{name: "tree.eval_ms_p50", value: p50("tree.eval"), unit: "ms"},
		{name: "core.mincost.solve_ms_p50", value: p50("core.mincost.solve"), unit: "ms"},
		{name: "core.mincost.solve_ms_p99", value: p99("core.mincost.solve"), unit: "ms"},
		{name: "core.mincost.recomputed_per_tick", value: mean(mcRecomp), unit: "count"},
		{name: "core.mincost.recomputed_frac", value: mean(mcFrac), unit: "frac"},
		{name: "core.mincost.merge_cells_per_tick", value: mean(mcCells), unit: "count"},
		{name: "core.mincost.rows_compressed_per_tick", value: mean(mcRows), unit: "count"},
		{name: "core.mincost.fold_replayed_per_tick", value: mean(mcFold), unit: "count"},
		{name: "core.power.solve_ms_p50", value: p50("core.power.solve"), unit: "ms"},
		{name: "core.power.solve_ms_p99", value: p99("core.power.solve"), unit: "ms"},
		{name: "core.power.best_ms_p50", value: p50("core.power.best"), unit: "ms"},
		{name: "core.power.front_ms_p50", value: p50("core.power.front"), unit: "ms"},
		{name: "core.power.merge_cells_per_tick", value: mean(pCells), unit: "count"},
		{name: "core.power.root_cells_scanned", value: mean(pScanned), unit: "count", note: "per tick"},
		{name: "core.power.root_repriced_frac", value: repricedFrac, unit: "frac", note: "repriced / scanned root cells"},
		{name: "core.power.root_merge_retained", value: mean(pRetained), unit: "count", note: "per tick"},
		{name: "core.power.front_points", value: mean(pFront), unit: "count"},
		{name: "core.qos.solve_ms_p50", value: p50("core.qos.solve"), unit: "ms"},
		{name: "core.qos.recomputed_per_tick", value: mean(qRecomp), unit: "count"},
		{name: "core.qos.merge_cells_per_tick", value: mean(qCells), unit: "count"},
		{name: "trace.tick_coverage", value: coverage, unit: "frac",
			note: fmt.Sprintf("twin layer spans per tick / served tick p50, %d twin ticks", len(ticks))},
		{name: "trace.overhead_frac", value: overhead, unit: "frac", note: "traced / untraced drift_p50_ms - 1"},
	}
}

// printSelfTimes prints each span name's call count and self time.
func (r *runner) printSelfTimes(spans []span) {
	self := selfTimes(spans)
	type row struct {
		n       int
		selfMS  []float64
		totalMS float64
	}
	rows := map[string]*row{}
	for _, s := range spans {
		if s.Name == "" {
			continue
		}
		rw := rows[s.Name]
		if rw == nil {
			rw = &row{}
			rows[s.Name] = rw
		}
		v := ms(self[s.ID])
		rw.n++
		rw.selfMS = append(rw.selfMS, v)
		rw.totalMS += v
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rw := rows[n]
		fmt.Fprintf(r.out, "span %-32s calls=%-6d self_p50_ms=%-10.4f self_total_ms=%.1f\n", n, rw.n, median(rw.selfMS), rw.totalMS)
	}
}

// parseMetrics sums every sample of the Prometheus text exposition by
// metric name (labels dropped).
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}
