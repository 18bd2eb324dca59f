// Command caprouter is the cluster front end: it runs the probe/divide
// protocol over a fleet of capserve backends, treating each backend's
// free capacity as remote contexts (internal/capcluster). A request's
// remote probe is a local credit check — no network on the deny path —
// and refusals degrade to the router's own capsule runtime, then to
// sequential, exactly the paper's ladder one tier up.
//
// The fleet is either fronted (-backends lists running capserve URLs) or
// spawned (-spawn boots N in-process backends of 2 contexts each on
// loopback ports — one process, real TCP, handy for tests and demos).
// Both can be combined.
//
// Usage:
//
//	caprouter -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	caprouter -addr :8090 -spawn 3
//	caprouter -addr 127.0.0.1:0 -spawn 2   # any free port, named on the "listening on" line
//	caprouter -addr :8090 -spawn 2 -trace          # route spans on /debug/trace
//	caprouter -addr :8090 -spawn 3 -slo-p99 150ms  # fleet telemetry on /debug/watch
//	caprouter -addr :8090 -spawn 3 -fault -debug-addr localhost:6061  # fault injection on /debug/fault
//	caprouter -addr :8090 -spawn 3 -incident-dir /var/tmp/capscope    # burn-triggered bundles on /debug/incident
//	caprouter -addr :8090 -debug-addr localhost:6061
//
// -contexts and -queue size the local fallback tier. They, -drain and the
// debug flags are internal/capdebug's, shared with capserve.
//
// Shutdown is graceful: SIGINT/SIGTERM flips /healthz to 503 first, then
// stops the listener, finishes in-flight requests (up to -drain), drains
// the spawned backends the same way, closes their runtimes and the local
// one, and prints the final cluster statistics. The exit status is 0
// after a clean drain, 1 on a bad configuration or a drain that ran out
// of time, 2 on a bad flag.
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capdebug"
	"repro/internal/capserve"
)

// spawnContexts is the context pool of each -spawn backend.
const spawnContexts = 2

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it routes until ctx is cancelled, then
// drains and returns the exit status (see the package comment).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("caprouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	backends := fs.String("backends", "", "comma-separated capserve base URLs to front")
	spawn := fs.Int("spawn", 0, "spawn this many in-process capserve backends on loopback ports")
	rf := capdebug.RegisterRuntime(fs)
	dbg := capdebug.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "caprouter: "+format+"\n", args...)
		return 1
	}

	plane, err := dbg.NewPlane()
	if err != nil {
		return fail("%v", err)
	}
	defer plane.Close()
	// One injector covers both sides of the wire: the router's dispatch
	// transport (router-side faults: partitions, resets, latency on the
	// way out) and every spawned backend's handler (backend-side faults:
	// trickling responses, 5xx bursts, mid-body aborts). Disarmed — no
	// rules installed — it is one atomic pointer load per request, so the
	// wrap stays on whenever -fault is set, and storms are scripted
	// entirely through /debug/fault at runtime.
	var wrapBackend func(string, http.Handler) http.Handler
	if plane.Fault != nil {
		wrapBackend = plane.Fault.Handler
	}

	var urls []string
	if *backends != "" {
		for _, u := range strings.Split(*backends, ",") {
			urls = append(urls, strings.TrimSpace(u))
		}
	}
	// Each spawned backend is a member of the debug plane named by its
	// host:port — the label the router's per-backend gauges and the fault
	// scope use — with its own tracer, sampler and recorder (bundles in
	// its own -incident-dir subdir), served on its own mux and, merged
	// after the router's, on the router's: only the router knows where an
	// ephemeral spawned backend lives. Wired before the URL reaches the
	// router, so the backend's mux and /metrics never mutate under live
	// traffic.
	var spawned []*capserve.Backend
	for i := 0; i < *spawn; i++ {
		brt, err := dbg.NewRuntime(spawnContexts)
		if err != nil {
			return fail("spawn backend %d: %v", i, err)
		}
		b, err := capserve.StartBackendOn(capserve.Config{Runtime: brt}, "127.0.0.1:0", wrapBackend)
		if err != nil {
			return fail("spawn backend %d: %v", i, err)
		}
		name := strings.TrimPrefix(b.URL, "http://")
		m, err := plane.Add(name, brt.Tracer(), capdebug.Tiers{Runtime: brt, Server: b.Server}, filepath.Join(dbg.IncidentDir, name))
		if err != nil {
			return fail("spawn backend %d: %v", i, err)
		}
		capdebug.Mount(b.Server.Mount, m)
		spawned = append(spawned, b)
		urls = append(urls, b.URL)
		fmt.Fprintf(stdout, "caprouter: spawned backend %d at %s (contexts=%d)\n", i, b.URL, spawnContexts)
	}

	// The router traces into its local tier's runtime tracer, so a
	// degraded request's route events and its local runtime events land
	// in one ring set.
	localRT, err := dbg.NewRuntime(rf.Contexts)
	if err != nil {
		return fail("%v", err)
	}
	local, err := capserve.New(capserve.Config{Runtime: localRT, QueueDepth: rf.Queue})
	if err != nil {
		return fail("%v", err)
	}
	// The wrap scopes each request by its path: feed subscriptions meet
	// the feed-scoped rules, so one can cut the push plane while
	// dispatches stay healthy — the fallback paths are only testable when
	// the failure is selective.
	var transport http.RoundTripper
	if plane.Fault != nil {
		transport = plane.Fault.Transport(capcluster.DefaultTransport(0))
	}
	router, err := capcluster.New(capcluster.Config{Backends: urls, Local: local, Transport: transport})
	if err != nil {
		return fail("%v", err)
	}

	// The router leads the plane: its member sees the fleet-level
	// triggers (SLO burn over merged dispatch latency, breaker trips, slow
	// ejections), and its mux serves every member's trace, watch report
	// and incident list — its own first.
	if _, err := plane.Add("caprouter", localRT.Tracer(), capdebug.Tiers{Runtime: localRT, Server: local, Router: router},
		filepath.Join(dbg.IncidentDir, "caprouter")); err != nil {
		return fail("%v", err)
	}
	capdebug.Mount(router.Mount, plane.Members...)
	if err := plane.ServeDebug("caprouter", stdout); err != nil {
		return fail("%v", err)
	}
	if dbg.IncidentDir != "" {
		fmt.Fprintf(stdout, "caprouter: incident recorders armed (router + %d backends), bundles under %s\n",
			len(spawned), dbg.IncidentDir)
	}

	if len(urls) > 0 {
		// The push plane: one subscription per backend, reconnecting with
		// jittered backoff until ctx ends. Each subscription's first delta
		// teaches the backend's real capacity; response headers are the
		// fallback, and the decay pass below recovers a gauge neither has
		// refreshed within the router's stale TTL.
		router.StartFeeds(ctx)
		fmt.Fprintf(stdout, "caprouter: subscribed to %d backend credit feeds\n", len(urls))
	}
	every(ctx, time.Second, router.Refresh)
	// CheckSlow is single-caller by contract; this ticker is it.
	every(ctx, capcluster.SlowCheckInterval, func() { router.CheckSlow() })

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	hs := &http.Server{Handler: router}
	fmt.Fprintf(stdout, "caprouter: listening on %s (backends=%d local-contexts=%d)\n",
		ln.Addr(), len(urls), localRT.Contexts())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fail("%v", err)
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "caprouter: draining...")
	router.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), rf.Drain)
	defer cancel()
	clean := true
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "caprouter: shutdown: %v\n", err)
		clean = false
	}
	for i, b := range spawned {
		if err := b.Close(sctx); err != nil {
			fmt.Fprintf(stderr, "caprouter: backend %d drain: %v\n", i, err)
			clean = false
			continue
		}
		// Drained, so no division is in flight. StartBackendOn leaves a
		// runtime it was given open: it is ours to close.
		b.Runtime().Close()
	}
	if clean {
		// In-flight handlers are done, so closing the local runtime
		// cannot block on live divisions.
		localRT.Close()
	}
	fmt.Fprintf(stdout, "caprouter: final stats: %s\n", router.Stats())
	for _, b := range router.Backends() {
		bs := b.Stats()
		fmt.Fprintf(stdout, "caprouter:   %s dispatched=%d served=%d sheds=%d deaths=%d\n",
			b.Name(), bs.Dispatches, bs.Served, bs.Sheds, bs.Deaths)
	}
	if !clean {
		return 1
	}
	return 0
}

// every runs fn on its own goroutine every d until ctx is cancelled.
func every(ctx context.Context, d time.Duration, fn func()) {
	go func() {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
}
