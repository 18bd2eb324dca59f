package capserve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/capsule"
)

// Backend is an in-process capserve instance on a real loopback
// listener: a separate capserve process in everything but pid. It is
// what `capserve -spawn` boots, what the cluster tests front, and what
// the storm tests kill mid-run — real TCP, real HTTP, so a router talking to
// it exercises exactly the code path it uses against remote processes.
type Backend struct {
	// Server is the serving layer itself, for direct access to
	// SetDraining, Runtime and metrics.
	Server *Server
	// URL is the backend's base URL (http://127.0.0.1:port).
	URL string

	hs    *net.TCPListener
	srv   *http.Server
	rt    *capsule.Runtime
	ownRT bool

	// fresh holds the connections accepted but not yet sent a byte;
	// closing is set once Shutdown begins (see Close).
	mu      sync.Mutex
	fresh   map[net.Conn]struct{}
	closing bool
}

// StartBackendOn builds a Server from cfg and serves it on addr — an
// explicit listen address, so a "rejoining" backend can come back on the
// address its router already knows; "127.0.0.1:0" for an ephemeral
// loopback port. A nil cfg.Runtime gets a fresh default runtime that the
// Backend owns (Close shuts it down); a caller-supplied runtime is left
// to its owner. wrap, when non-nil, is applied around the Server
// (capfault-style fault injection on the backend side of the wire): it
// receives the backend's host:port — assigned by the listener, so rules
// scoped by backend name match from either side — and the Server as an
// http.Handler.
func StartBackendOn(cfg Config, addr string, wrap func(name string, h http.Handler) http.Handler) (*Backend, error) {
	ownRT := false
	if cfg.Runtime == nil {
		cfg.Runtime = capsule.NewDefault()
		ownRT = true
	}
	s, err := New(cfg)
	if err != nil {
		if ownRT {
			cfg.Runtime.Close()
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if ownRT {
			cfg.Runtime.Close()
		}
		return nil, fmt.Errorf("capserve: backend listen: %w", err)
	}
	var h http.Handler = s
	if wrap != nil {
		h = wrap(ln.Addr().String(), h)
	}
	b := &Backend{
		Server: s,
		URL:    "http://" + ln.Addr().String(),
		hs:     ln.(*net.TCPListener),
		rt:     cfg.Runtime,
		ownRT:  ownRT,
		fresh:  map[net.Conn]struct{}{},
	}
	b.srv = &http.Server{Handler: h, ConnState: b.trackFresh}
	b.srv.RegisterOnShutdown(b.closeFresh)
	go b.srv.Serve(ln)
	return b, nil
}

// Runtime returns the backend's capsule runtime.
func (b *Backend) Runtime() *capsule.Runtime { return b.rt }

// Close drains the backend in the documented shutdown order — the same
// order cmd/capserve performs on SIGTERM, codified so every embedder
// gets it right:
//
//  1. SetDraining(true): /healthz flips to 503 while the listener is
//     still open, so a balancer polling it stops routing here first;
//  2. http.Server.Shutdown: the listener closes and in-flight requests
//     run to completion (bounded by ctx) — an already-admitted request
//     is never 503ed by the drain. A connection that was dialed but
//     never sent a byte (a router's spare dispatch connection) carries
//     no request, so it is closed as Shutdown begins instead of holding
//     the drain for net/http's 5 s new-connection grace;
//  3. the runtime closes (only if this Backend created it), retiring the
//     parked per-context workers.
//
// Close is safe to call more than once.
func (b *Backend) Close(ctx context.Context) error {
	b.Server.SetDraining(true)
	err := b.srv.Shutdown(ctx)
	if b.ownRT && err == nil {
		// Handlers are done (Shutdown returned clean), so Close cannot
		// block on in-flight divisions.
		b.rt.Close()
	}
	return err
}

// trackFresh is the http.Server's ConnState hook: a connection is fresh
// from accept until its first byte arrives (or it closes).
func (b *Backend) trackFresh(c net.Conn, st http.ConnState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case st == http.StateNew && b.closing:
		c.Close() // accepted just before the listener closed
	case st == http.StateNew:
		b.fresh[c] = struct{}{}
	default:
		delete(b.fresh, c)
	}
}

// closeFresh runs once Shutdown has closed the listener: every
// connection that has not sent a byte carries no request to drain.
func (b *Backend) closeFresh() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closing = true
	for c := range b.fresh {
		c.Close()
	}
}

// Kill tears the backend down with no drain: the listener and every
// established connection close immediately, so in-flight requests die
// with transport errors — a crashed process, as its routers see it. The
// runtime is left running (a real crash doesn't run destructors either);
// tests that care call Runtime().Close themselves.
func (b *Backend) Kill() { b.srv.Close() }
