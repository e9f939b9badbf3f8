package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "tick", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50); a third [60,70); one
		// spills past the parent's end and counts only up to 100.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 60 * ms, End: 70 * ms},
		{ID: 5, Parent: 1, Name: "d", Start: 95 * ms, End: 120 * ms},
		// A grandchild reduces its parent's self time, not the tick's.
		{ID: 6, Parent: 4, Name: "c.inner", Start: 62 * ms, End: 66 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms - 5*ms,
		2: 30 * ms,
		3: 20 * ms,
		4: 6 * ms,
		5: 25 * ms,
		6: 4 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestLinkRequestsParentsServerSpanToClientSpan(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.drift"},
		{ID: 2, Name: "client.placement"},
		{ID: 3, Name: "serve.http.placement", ReqID: 2},
		{ID: 4, Name: "serve.http.drift", ReqID: 1},
		{ID: 5, Name: "serve.http.front", ReqID: 99}, // unknown id: stays a root
		{ID: 6, Name: "serve.http.metrics"},          // no id
	}
	linkRequests(spans)
	for _, tc := range []struct{ id, parent int }{{3, 2}, {4, 1}, {5, 0}, {6, 0}, {1, 0}} {
		if got := spans[tc.id-1].Parent; got != tc.parent {
			t.Errorf("span %d parent = %d, want %d", tc.id, got, tc.parent)
		}
	}
}

// End to end through HTTP: the client's span id travels in the
// request-id header, and the middleware's server span links back to it.
func TestRequestIDLinksClientAndServerSpans(t *testing.T) {
	tr := newTracer()
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("0123456789"))
	})
	mw := newHTTPSpans(backend, tr)
	srv := httptest.NewServer(mw)
	defer srv.Close()

	c := newClient(srv.URL, "x", 1)
	c.tr = tr
	defer c.hc.CloseIdleConnections()
	code, body, id, err := c.send(op{kind: opPlacement})
	if err != nil || code != 200 || string(body) != "0123456789" || id == 0 {
		t.Fatalf("send: code %d body %q id %d err %v", code, body, id, err)
	}
	spans := tr.snapshot()
	linkRequests(spans)
	var client, server *span
	for i := range spans {
		switch spans[i].Name {
		case "client.placement":
			client = &spans[i]
		case "serve.http.placement":
			server = &spans[i]
		}
	}
	if client == nil || server == nil {
		t.Fatalf("spans = %+v", spans)
	}
	if server.Parent != client.ID || server.ReqID != id || client.ID != id {
		t.Fatalf("server span %+v not linked to client span %+v", *server, *client)
	}
	if server.Start < client.Start || server.End > client.End || server.dur() < 2*time.Millisecond {
		t.Fatalf("server span %+v not inside client span %+v", *server, *client)
	}
	if got := mw.respBytes["placement"]; len(got) != 1 || got[0] != 10 {
		t.Fatalf("response bytes = %v, want [10]", got)
	}
}

func TestRouteOf(t *testing.T) {
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/instances/bench/drift", "drift"},
		{"GET", "/instances/bench/eval", "eval"},
		{"POST", "/instances", "load"},
		{"GET", "/metrics", "metrics"},
	} {
		if got := routeOf(tc.method, tc.path); got != tc.want {
			t.Errorf("routeOf(%s %s) = %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}
