// Command capserve serves the native workloads over HTTP on a shared
// capsule runtime: probe/divide admission control, a bounded accept queue
// that sheds with 503 when full, per-workload input caps, /healthz and a
// Prometheus /metrics endpoint. See internal/capserve for the policy.
//
// Usage:
//
//	capserve -addr :8080 -contexts 4
//	capserve -addr 127.0.0.1:0 -queue 32   # any free port, named on the "listening on" line
//	capserve -trace -trace-sample 16       # lifecycle tracing on /debug/trace
//	capserve -watch-interval 1s -slo-p99 150ms -slo-avail 0.99   # /debug/watch telemetry
//	capserve -fault -debug-addr localhost:6060    # fault injection scripted via /debug/fault
//	capserve -incident-dir /var/tmp/capscope      # burn-triggered incident bundles on /debug/incident
//	capserve -debug-addr localhost:6060    # pprof + /debug/{trace,watch,incident,fault} side listener
//
// The runtime flags (-contexts, -queue, -drain) and the debug flags are
// internal/capdebug's, shared with caprouter. Every
// /debug/{trace,watch,incident} answer is a JSON array of one member,
// named -trace-source.
//
// Shutdown is graceful: SIGINT/SIGTERM flips /healthz to 503, stops the
// listener, lets in-flight requests finish (up to -drain), closes the
// runtime and prints the final statistics. The exit status is 0 after a
// clean drain, 1 on a bad configuration or a drain that ran out of
// time, 2 on a bad flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/capdebug"
	"repro/internal/capserve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it serves until ctx is cancelled, then
// drains and returns the exit status (see the package comment).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	name := fs.String("trace-source", "capserve", "this server's name on every debug plane: trace snapshots, watch reports, incident bundles, fault scope")
	rf := capdebug.RegisterRuntime(fs)
	dbg := capdebug.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "capserve: %v\n", err)
		return 1
	}

	plane, err := dbg.NewPlane()
	if err != nil {
		return fail(err)
	}
	defer plane.Close()
	rt, err := dbg.NewRuntime(rf.Contexts)
	if err != nil {
		return fail(err)
	}
	srv, err := capserve.New(capserve.Config{Runtime: rt, QueueDepth: rf.Queue})
	if err != nil {
		return fail(err)
	}

	// One member on the debug plane: the sampler, recording incidents
	// (bundles straight into -incident-dir), and the three endpoints on
	// the serving mux, plus the side listener when -debug-addr is set.
	m, err := plane.Add(*name, rt.Tracer(), capdebug.Tiers{Runtime: rt, Server: srv}, dbg.IncidentDir)
	if err != nil {
		return fail(err)
	}
	capdebug.Mount(srv.Mount, m)
	if err := plane.ServeDebug("capserve", stdout); err != nil {
		return fail(err)
	}
	if dbg.IncidentDir != "" {
		fmt.Fprintf(stdout, "capserve: incident recorder armed, bundles in %s (max %d)\n", dbg.IncidentDir, dbg.IncidentMax)
	}

	// The injector wraps the whole serving handler; disarmed (no rules
	// installed) it is one atomic pointer load per request, so the wrap
	// stays on whenever -fault is set and storms are scripted entirely
	// through /debug/fault at runtime.
	var handler http.Handler = srv
	if plane.Fault != nil {
		handler = plane.Fault.Handler(*name, srv)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: handler}
	fmt.Fprintf(stdout, "capserve: listening on %s (contexts=%d queue=%d trace=%v)\n",
		ln.Addr(), rt.Contexts(), srv.QueueDepth(), dbg.Trace)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fail(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "capserve: draining...")
	srv.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), rf.Drain)
	defer cancel()
	code := 0
	if err := hs.Shutdown(sctx); err != nil {
		// Handlers are still running (drain timeout hit): closing now
		// would block on their in-flight divisions. Report and fail.
		fmt.Fprintf(stderr, "capserve: shutdown: %v (skipping runtime close)\n", err)
		code = 1
	} else {
		// Close waits for in-flight workers, then retires the parked
		// per-context worker goroutines.
		rt.Close()
	}
	fmt.Fprintf(stdout, "capserve: final stats: %s\n", rt.Stats())
	return code
}
