package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// requestIDHeader carries the id of a client span to the server, so
// the server-side span of the same request can name it as parent.
const requestIDHeader = "X-Request-Id"

// span is one timed call at a layer boundary. Times are offsets from
// the tracer's epoch. ReqID is set on spans recorded by the HTTP
// middleware: the id of the client span that sent the request, which
// linkRequests turns into Parent.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
	ReqID      int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current offset from the epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// reserve allocates a span id before the span's call starts, so the id
// can be handed to children (or sent as a request id) while it runs.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

// finish fills in a reserved span.
func (t *tracer) finish(id int, name string, parent int, start, end time.Duration, reqID int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, Start: start, End: end, ReqID: reqID}
}

// do runs fn inside a span named name under parent and returns the
// span's id.
func (t *tracer) do(name string, parent int, fn func(id int)) int {
	if t == nil {
		fn(0)
		return 0
	}
	id := t.reserve()
	start := t.now()
	fn(id)
	t.finish(id, name, parent, start, t.now(), 0)
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// linkRequests sets the parent of every span that carries a request id
// to the span with that id, when one exists: a serve.http.<route> span
// becomes the child of the client.<route> span that sent it.
func linkRequests(spans []span) {
	byID := make(map[int]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	for i := range spans {
		if r := spans[i].ReqID; r != 0 && byID[r] && spans[i].Parent == 0 {
			spans[i].Parent = r
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Children may overlap one another (concurrent calls); the union
// counts shared time once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of the children's
// intervals covers.
func covered(p span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// routeOf names the API route of a request for span and counter names:
// the last path element of /instances/{id}/<route>, "load" for POST
// /instances, and the path itself for the rest.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 3 && parts[0] == "instances":
		return parts[2]
	case len(parts) == 1 && parts[0] == "instances" && method == http.MethodPost:
		return "load"
	}
	return strings.Join(parts, ".")
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// httpSpans wraps a server handler: every request gets a
// serve.http.<route> span tagged with the client's request id, and the
// response size of each request lands in respBytes under its route.
type httpSpans struct {
	next http.Handler
	tr   *tracer

	mu        sync.Mutex
	respBytes map[string][]float64
}

func newHTTPSpans(next http.Handler, tr *tracer) *httpSpans {
	return &httpSpans{next: next, tr: tr, respBytes: make(map[string][]float64)}
}

func (h *httpSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r.Method, r.URL.Path)
	// A missing or malformed id leaves the span unlinked (0).
	reqID, _ := strconv.Atoi(r.Header.Get(requestIDHeader))
	id := h.tr.reserve()
	start := h.tr.now()
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.tr.finish(id, "serve.http."+route, 0, start, h.tr.now(), reqID)
	h.mu.Lock()
	h.respBytes[route] = append(h.respBytes[route], float64(cw.n))
	h.mu.Unlock()
}
