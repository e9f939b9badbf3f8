package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// result is the outcome of one request.
type result struct {
	kind opKind
	// lat runs from when the request was due (open loop) or sent
	// (closed loop) to the end of its response body.
	lat time.Duration
	// late is how long after its due time the generator launched the
	// request; always 0 in closed loop.
	late time.Duration
	// done is when the response ended, as an offset from the start of
	// the window.
	done time.Duration
	code int   // HTTP status; 0 on a transport error
	err  error // transport error
	// body is kept for drift and eval responses, which are checked and
	// mined for tick statistics after the run.
	body  []byte
	reqID int    // client span id when traced, else 0
	tick  uint64 // the tick that acknowledged a drift (set by phaseResult.check)
}

func (r result) ok() bool { return r.err == nil && r.code >= 200 && r.code < 300 }

// sendFunc performs one request and returns its status and body.
type sendFunc func(o op) (code int, body []byte, reqID int, err error)

// runOpen sends ops on their schedule from a single dispatcher: each op
// is launched at its due time whatever the state of earlier ones, and
// waits there for one of conns connection slots. Latency counts from
// the due time, so a stall delays every request queued behind it and
// shows in their latencies, not only in the stalled one's.
func runOpen(ops []op, conns int, send sendFunc) []result {
	res := make([]result, len(ops))
	slots := make(chan struct{}, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i, o := range ops {
		if d := time.Until(start.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - o.due
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			code, body, reqID, err := send(o)
			<-slots
			done := time.Since(start)
			res[i] = result{kind: o.kind, lat: done - o.due, late: late, done: done,
				code: code, err: err, body: keepBody(o.kind, body), reqID: reqID}
		}()
	}
	wg.Wait()
	return res
}

// runClosed is one client that sends a drift, waits for its reply,
// then sends a read of kind read, and repeats until window has passed.
// It returns the results and the drifts it sent.
func runClosed(ds *driftStream, read opKind, window time.Duration, send sendFunc) ([]result, []op) {
	var res []result
	var sent []op
	start := time.Now()
	do := func(o op) {
		t0 := time.Since(start)
		code, body, reqID, err := send(o)
		done := time.Since(start)
		res = append(res, result{kind: o.kind, lat: done - t0, done: done,
			code: code, err: err, body: keepBody(o.kind, body), reqID: reqID})
	}
	for time.Since(start) < window {
		d := op{kind: opDrift, drift: ds.next()}
		sent = append(sent, d)
		do(d)
		do(op{kind: read})
	}
	return res, sent
}

func keepBody(k opKind, body []byte) []byte {
	if k == opDrift || k == opEval {
		return body
	}
	return nil
}

// client sends the benchmark's requests to one instance of a server.
type client struct {
	hc   *http.Client
	base string // http://host:port
	id   string // instance id
	tr   *tracer
}

func newClient(base, id string, conns int) *client {
	return &client{
		hc: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		base: base,
		id:   id,
	}
}

// request builds the HTTP request of o.
func (c *client) request(o op) (*http.Request, error) {
	inst := c.base + "/instances/" + c.id
	switch o.kind {
	case opDrift:
		body, err := json.Marshal(map[string]redraw{"redraw": o.drift})
		if err != nil {
			return nil, err
		}
		return http.NewRequest(http.MethodPost, inst+"/drift", bytes.NewReader(body))
	case opPlacement:
		return http.NewRequest(http.MethodGet, inst+"/placement", nil)
	case opFront:
		return http.NewRequest(http.MethodGet, inst+"/front", nil)
	case opEval:
		down := make([]string, len(o.down))
		for i, j := range o.down {
			down[i] = strconv.Itoa(j)
		}
		return http.NewRequest(http.MethodGet, inst+"/eval?policy=multiple&down="+strings.Join(down, ","), nil)
	}
	return nil, fmt.Errorf("unknown op kind %d", o.kind)
}

// send performs o. When tracing, the whole exchange is a
// client.<route> span whose id travels in the request-id header.
func (c *client) send(o op) (int, []byte, int, error) {
	req, err := c.request(o)
	if err != nil {
		return 0, nil, 0, err
	}
	id := c.tr.reserve()
	if id != 0 {
		req.Header.Set(requestIDHeader, strconv.Itoa(id))
	}
	var start time.Duration
	if c.tr != nil {
		start = c.tr.now()
	}
	code, body, err := c.do(req)
	if c.tr != nil {
		c.tr.finish(id, "client."+opNames[o.kind], 0, start, c.tr.now(), 0)
	}
	return code, body, id, err
}

// do performs req and reads the whole response body.
func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// call performs one request outside the measured traffic (set-up,
// snapshots, scrapes) and requires the wanted status.
func (c *client) call(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	code, out, err := c.do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, bytes.TrimSpace(out))
	}
	return out, nil
}
