package capserve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
)

// Backend is a Server on a real listener: a separate capserve process in
// everything but pid. Every member of a capserve process is one — the
// lead, lone or routing, and each backend `capserve -spawn` boots — as
// is every backend the cluster tests front and the storm tests kill
// mid-run: real TCP, real HTTP, so a router talking to it exercises
// exactly the code path it uses against remote processes. A Backend owns
// no runtime: whoever built its Server's runtime closes it, after Close.
type Backend struct {
	// Server is the serving layer itself, for direct access to
	// SetDraining, Runtime and metrics.
	Server *Server
	// URL is the backend's base URL (http://host:port).
	URL string

	srv  *http.Server
	done chan struct{} // closed when the serving loop returns
	err  error         // the serving loop's failure, set before done closes

	// fresh holds the connections accepted but not yet sent a byte;
	// closing is set once Shutdown begins (see Close).
	mu      sync.Mutex
	fresh   map[net.Conn]struct{}
	closing bool
}

// StartBackendOn builds a Server from cfg and serves it on addr with
// wrap in front: New, then Serve. cfg.Runtime stays the caller's to
// close, after Close.
func StartBackendOn(cfg Config, addr string, wrap func(name string, h http.Handler) http.Handler) (*Backend, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return Serve(s, addr, wrap)
}

// Serve serves s on addr — an explicit listen address, so a "rejoining"
// backend can come back on the address its router already knows;
// "127.0.0.1:0" for an ephemeral loopback port. front, when non-nil,
// is the handler in front of s: a router whose local tier is s, or
// capfault-style fault injection. It receives the bound host:port —
// assigned by the listener, so rules scoped by backend name match from
// either side — and s as an http.Handler.
func Serve(s *Server, addr string, front func(name string, h http.Handler) http.Handler) (*Backend, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var h http.Handler = s
	if front != nil {
		h = front(ln.Addr().String(), h)
	}
	b := &Backend{
		Server: s,
		URL:    "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
		fresh:  map[net.Conn]struct{}{},
	}
	b.srv = &http.Server{Handler: h, ConnState: b.trackFresh}
	b.srv.RegisterOnShutdown(b.closeFresh)
	go func() {
		if err := b.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			b.err = err
		}
		close(b.done)
	}()
	return b, nil
}

// Close drains the backend in the documented shutdown order, the one
// every member of a capserve process follows on SIGTERM:
//
//  1. SetDraining(true): /healthz flips to 503 while the listener is
//     still open, so a balancer polling it stops routing here first;
//  2. http.Server.Shutdown: the listener closes and in-flight requests
//     run to completion (bounded by ctx) — an already-admitted request
//     is never 503ed by the drain. A connection that was dialed but
//     never sent a byte (a router's spare dispatch connection, a
//     client's preconnect) carries no request, so it is closed at once
//     instead of holding the drain for net/http's 5 s new-connection
//     grace.
//
// It returns ctx's error when requests outlived it, and the serving
// loop's error if that loop failed before Close. The runtime is not
// closed: its owner closes it once Close has returned nil, when no
// handler can still be dividing on it. Close is safe to call more than
// once.
func (b *Backend) Close(ctx context.Context) error {
	b.Server.SetDraining(true)
	err := b.srv.Shutdown(ctx)
	<-b.done // Shutdown closed the listener, so the loop has returned
	return errors.Join(err, b.err)
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
// runtime is left running, as it is by Close; tests that care call
// Server.Runtime().Close themselves.
func (b *Backend) Kill() { b.srv.Close() }
