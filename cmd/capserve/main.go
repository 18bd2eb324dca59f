// Command capserve serves the native workloads over HTTP on a shared
// capsule runtime: probe/divide admission control, a bounded accept queue
// that sheds with 503 when full, per-workload input caps, /healthz and a
// Prometheus /metrics endpoint. See internal/capserve for the policy.
//
// With peers — -backends, running capserve URLs, and/or -spawn N, N
// in-process backends of 2 contexts on loopback ports — it routes
// (internal/capcluster): a request probes the peers' free capacity as
// remote contexts, and a refusal degrades to this server's own runtime,
// then to sequential: the paper's ladder one tier up.
//
// Usage:
//
//	capserve -addr :8080 -contexts 4
//	capserve -addr 127.0.0.1:0 -queue 32   # any free port, named on the "listening on" line
//	capserve -trace -slo-p99 150ms -incident-dir /var/tmp/capscope  # /debug/{trace,watch,incident}
//	capserve -fault -debug-addr localhost:6060  # pprof, /debug/* and /debug/fault on a side listener
//	capserve -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	capserve -addr :8090 -spawn 3
//
// The runtime and debug flags are internal/capdebug's. The debug
// endpoints answer a JSON array, lead member first: "capserve", or
// "caprouter" and then each spawned backend as its host:port.
//
// Every member — this server and each spawned backend — is a
// capserve.Backend, served and drained one way. Shutdown is graceful:
// SIGINT/SIGTERM drains the lead, then each spawned backend: /healthz
// flips to 503, the listener stops, in-flight requests finish (up to
// -drain in all) and a connection that never sent a byte is closed at
// once. Then every runtime closes, except one whose member's drain ran
// out of time, and the final statistics are printed. The exit status is
// 0 after a clean drain, 1 on a bad configuration, a failed serving loop
// or a drain that ran out of time, 2 on a bad flag.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
	"unicode"

	"repro/internal/capcluster"
	"repro/internal/capdebug"
	"repro/internal/capserve"
	"repro/internal/capsule"
)

const spawnContexts = 2 // the context pool of each -spawn backend

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command's flags.
type options struct {
	addr, name, backends string
	spawn                int
	*capdebug.RuntimeFlags
	*capdebug.Flags
}

// newFlagSet defines every flag of the command, once: run parses its
// arguments with it, and TestDocCommands each documented command line.
func newFlagSet(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("capserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{RuntimeFlags: capdebug.RegisterRuntime(fs), Flags: capdebug.Register(fs)}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.name, "trace-source", "", `this server's name on every debug plane: trace snapshots, watch reports, incident bundles, fault scope (default "capserve", "caprouter" with peers)`)
	fs.StringVar(&o.backends, "backends", "", "comma-separated capserve base URLs to route over")
	fs.IntVar(&o.spawn, "spawn", 0, "spawn this many in-process capserve backends on loopback ports and route over them")
	return fs, o
}

// run is the whole command: it serves until ctx is cancelled, then
// drains and returns the exit status (see the package comment).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs, o := newFlagSet(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	urls := strings.FieldsFunc(o.backends, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	routing := len(urls) > 0 || o.spawn > 0
	name := cmp.Or(o.name, "capserve")
	if routing {
		name = cmp.Or(o.name, "caprouter")
	}
	// The feeds and tickers end when run returns, on every path.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Every runtime run builds is closed on every return path: shut
	// drains each member, the lead first (healthz 503, then Shutdown
	// within ctx), then closes every runtime. A member whose drain ran
	// out of time keeps its runtime open: closing it would block on its
	// in-flight divisions.
	var runtimes []*capsule.Runtime
	var members []*capserve.Backend
	shut := func(ctx context.Context) bool {
		busy := map[*capsule.Runtime]bool{}
		for _, m := range members {
			if err := m.Close(ctx); err != nil {
				fmt.Fprintf(stderr, "capserve: %s drain: %v (skipping runtime close)\n", strings.TrimPrefix(m.URL, "http://"), err)
				busy[m.Server.Runtime()] = true
			}
		}
		for _, rt := range runtimes {
			if !busy[rt] {
				rt.Close()
			}
		}
		return len(busy) == 0
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "capserve: %v\n", err)
		dctx, cancel := context.WithTimeout(context.Background(), o.Drain)
		defer cancel()
		shut(dctx)
		return 1
	}
	if o.spawn < 0 {
		return fail(fmt.Errorf("-spawn must be >= 0, got %d", o.spawn))
	}

	plane, err := o.NewPlane()
	if err != nil {
		return fail(err)
	}
	defer plane.Close()
	// One injector wraps the serving handler or, with peers, the router's
	// dispatch transport and each spawned backend's handler. Disarmed it
	// costs one atomic load per request; rules arrive via /debug/fault.
	var wrap func(string, http.Handler) http.Handler
	var transport http.RoundTripper
	if plane.Fault != nil {
		wrap = plane.Fault.Handler
		transport = plane.Fault.Transport(capcluster.DefaultTransport(0))
	}

	// Each spawned backend is a debug-plane member named by its host:port,
	// the label of the router's per-backend gauges and of fault scopes. It
	// is wired before the router sees it, so no mux mutates under traffic.
	for i := 0; i < o.spawn; i++ {
		brt, err := o.NewRuntime(spawnContexts)
		if err != nil {
			return fail(fmt.Errorf("spawn backend %d: %w", i, err))
		}
		runtimes = append(runtimes, brt)
		b, err := capserve.StartBackendOn(capserve.Config{Runtime: brt}, "127.0.0.1:0", wrap)
		if err != nil {
			return fail(fmt.Errorf("spawn backend %d: %w", i, err))
		}
		members = append(members, b)
		bname := strings.TrimPrefix(b.URL, "http://")
		m, err := plane.Add(bname, capdebug.Tiers{Server: b.Server}, filepath.Join(o.IncidentDir, bname))
		if err != nil {
			return fail(fmt.Errorf("spawn backend %d: %w", i, err))
		}
		capdebug.Mount(b.Server.Mount, m)
		urls = append(urls, b.URL)
		fmt.Fprintf(stdout, "capserve: spawned backend %d at %s (contexts=%d)\n", i, b.URL, spawnContexts)
	}

	// The router traces into its local tier's runtime tracer, so a
	// degraded request's route and runtime events land in one ring set.
	rt, err := o.NewRuntime(o.Contexts)
	if err != nil {
		return fail(err)
	}
	runtimes = append(runtimes, rt)
	srv, err := capserve.New(capserve.Config{Runtime: rt, QueueDepth: o.Queue})
	if err != nil {
		return fail(err)
	}
	// Without peers the member is the server, its bundles straight in
	// -incident-dir. A router leads the plane, sees the fleet-level
	// triggers, and fronts srv's /run; srv serves everything else,
	// every member's debug endpoints included.
	var front func(string, http.Handler) http.Handler
	tiers, dir := capdebug.Tiers{Server: srv}, o.IncidentDir
	var router *capcluster.Router
	if routing {
		if router, err = capcluster.New(capcluster.Config{Backends: urls, Local: srv, Transport: transport}); err != nil {
			return fail(err)
		}
		front = func(string, http.Handler) http.Handler { return router }
		tiers, dir = capdebug.Tiers{Router: router}, filepath.Join(dir, name)
	} else if wrap != nil {
		front = func(_ string, h http.Handler) http.Handler { return wrap(name, h) }
	}
	if _, err := plane.Add(name, tiers, dir); err != nil {
		return fail(err)
	}
	capdebug.Mount(srv.Mount, plane.Members...)
	if err := plane.ServeDebug("capserve", stdout); err != nil {
		return fail(err)
	}
	if o.IncidentDir != "" {
		fmt.Fprintf(stdout, "capserve: incident recorders armed (%d members), bundles under %s\n", len(plane.Members), o.IncidentDir)
	}
	if routing {
		// One credit feed per backend; Refresh decays a gauge that neither
		// the feed nor response headers refreshed within the stale TTL.
		router.StartFeeds(ctx)
		go func() {
			refresh, slow := time.NewTicker(time.Second), time.NewTicker(capcluster.SlowCheckInterval)
			defer refresh.Stop()
			defer slow.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-refresh.C:
					router.Refresh()
				case <-slow.C:
					router.CheckSlow() // single-caller by contract: this loop is it
				}
			}
		}()
	}

	lead, err := capserve.Serve(srv, o.addr, front)
	if err != nil {
		return fail(err)
	}
	members = append([]*capserve.Backend{lead}, members...)
	fmt.Fprintf(stdout, "capserve: listening on %s (contexts=%d queue=%d backends=%d trace=%v)\n",
		strings.TrimPrefix(lead.URL, "http://"), rt.Contexts(), srv.QueueDepth(), len(urls), o.Trace)
	<-ctx.Done()

	fmt.Fprintln(stdout, "capserve: draining...")
	sctx, cancelDrain := context.WithTimeout(context.Background(), o.Drain)
	defer cancelDrain()
	clean := shut(sctx)
	if !routing {
		fmt.Fprintf(stdout, "capserve: final stats: %s\n", rt.Stats())
	} else {
		fmt.Fprintf(stdout, "capserve: final stats: %s\n", router.Stats())
		for _, b := range router.Backends() {
			bs := b.Stats()
			fmt.Fprintf(stdout, "capserve:   %s dispatched=%d served=%d sheds=%d deaths=%d\n",
				b.Name(), bs.Dispatches, bs.Served, bs.Sheds, bs.Deaths)
		}
	}
	if !clean {
		return 1
	}
	return 0
}
