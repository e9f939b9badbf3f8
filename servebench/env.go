package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"replicatree/internal/serve"
)

// instanceID is the id every workload loads its instance under.
const instanceID = "bench"

// env is one server under test: an in-process serve.Server behind a
// loopback listener, journaling to its own data directory.
type env struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error // Serve's return value
	dataDir string
	loaded  bool
	// spans, when set, wraps every request in the tracing middleware.
	spans atomic.Pointer[httpSpans]
}

// startEnv constructs a server with data directory dir, starts it on a
// loopback port and loads the instance described by loadBody. The
// returned duration is the set-up time: from server construction to
// the 201 of the load.
func startEnv(dir string, loadBody []byte, conns int) (*env, *client, time.Duration, error) {
	start := time.Now()
	e := &env{srv: serve.NewServer(serve.ServerOptions{DataDir: dir}), dataDir: dir}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	base := e.srv.Handler()
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := e.spans.Load(); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		base.ServeHTTP(w, r)
	})}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	c := newClient("http://"+ln.Addr().String(), instanceID, conns)
	if _, err := c.call(http.MethodPost, "/instances", loadBody, http.StatusCreated); err != nil {
		e.close(c)
		return nil, nil, 0, fmt.Errorf("loading instance: %w", err)
	}
	e.loaded = true
	return e, c, time.Since(start), nil
}

// close deletes the instance (stopping its solver workers and closing
// its journal), shuts the listener down and waits for Serve to return.
func (e *env) close(c *client) error {
	var err error
	if e.loaded {
		_, err = c.call(http.MethodDelete, "/instances/"+instanceID, nil, http.StatusOK)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := e.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	c.hc.CloseIdleConnections()
	return err
}
