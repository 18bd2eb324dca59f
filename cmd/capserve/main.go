// Command capserve serves the native workloads over HTTP on a shared
// capsule runtime: probe/divide admission control, a bounded accept queue
// that sheds with 503 when full, per-workload input caps, /healthz and a
// Prometheus /metrics endpoint. See internal/capserve for the policy.
//
// Usage:
//
//	capserve -addr :8080 -contexts 4
//	capserve -addr :8080 -queue 32 -caps quicksort=65536,dijkstra=20000
//	capserve -throttle=false -window 50us
//	capserve -trace -trace-sample 16       # lifecycle tracing on /debug/trace
//	capserve -watch-interval 1s -slo-p99 150ms -slo-avail 0.99   # /debug/watch telemetry
//	capserve -fault -debug-addr localhost:6060    # fault injection scripted via /debug/fault
//	capserve -incident-dir /var/tmp/capscope      # burn-triggered incident bundles on /debug/incident
//	capserve -debug-addr localhost:6060    # pprof + /debug/{trace,watch,incident,fault} side listener
//
// The debug flags and endpoints are internal/capdebug's: every
// /debug/{trace,watch,incident} answer is a JSON array of one member,
// named -trace-source.
//
// Shutdown is graceful: SIGINT/SIGTERM flips /healthz to 503, stops the
// listener, lets in-flight requests finish (up to -drain), joins the
// runtime and prints the final statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/capdebug"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/workloads"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	contexts := flag.Int("contexts", 0, "context pool size (0 = GOMAXPROCS)")
	throttle := flag.Bool("throttle", true, "death-rate division throttling")
	window := flag.Duration("window", 100*time.Microsecond, "death-rate window")
	threshold := flag.Int("death-threshold", 0, "death count tripping the throttle (0 = contexts/2)")
	queue := flag.Int("queue", 0, "accept-queue depth (0 = 4x contexts)")
	maxN := flag.Int("maxn", 0, "input cap for every workload (0 = per-workload defaults)")
	caps := flag.String("caps", "", "per-workload caps, e.g. quicksort=65536,lzw=32768")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	name := flag.String("trace-source", "capserve", "this server's name on every debug plane: trace snapshots, watch reports, incident bundles, fault scope")
	dbg := capdebug.Register(flag.CommandLine)
	flag.Parse()

	plane, err := dbg.NewPlane()
	if err != nil {
		fail("%v", err)
	}
	tracer := dbg.NewTracer()
	rt, err := capsule.NewValidated(capsule.Config{
		Contexts:       *contexts,
		Throttle:       *throttle,
		DeathWindow:    *window,
		DeathThreshold: *threshold,
		Tracer:         tracer,
	})
	if err != nil {
		fail("%v", err)
	}

	capMap, err := parseCaps(*caps, *maxN)
	if err != nil {
		fail("%v", err)
	}
	srv, err := capserve.New(capserve.Config{
		Runtime:     rt,
		QueueDepth:  *queue,
		MaxN:        capMap,
		TraceSample: dbg.TraceSample,
	})
	if err != nil {
		fail("%v", err)
	}

	// One member on the debug plane: the sampler, the incident recorder
	// (bundles straight into -incident-dir) and the three endpoints on
	// the serving mux, plus the side listener when -debug-addr is set.
	m, err := plane.Add(*name, tracer, capdebug.Tiers{Runtime: rt, Server: srv}, dbg.IncidentDir)
	if err != nil {
		fail("%v", err)
	}
	capdebug.Mount(srv.Mount, m)
	plane.ServeDebug("capserve")
	if m.Recorder != nil {
		fmt.Printf("capserve: incident recorder armed, bundles in %s (max %d)\n", m.Recorder.Dir(), dbg.IncidentMax)
	}

	// The injector wraps the whole serving handler; disarmed (no rules
	// installed) it is one atomic pointer load per request, so the wrap
	// stays on whenever -fault is set and storms are scripted entirely
	// through /debug/fault at runtime.
	var handler http.Handler = srv
	if plane.Fault != nil {
		handler = plane.Fault.Handler(*name, srv)
	}
	hs := &http.Server{Addr: *addr, Handler: handler}
	fmt.Printf("capserve: listening on %s (contexts=%d queue=%d throttle=%v trace=%v)\n",
		*addr, rt.Contexts(), srv.QueueDepth(), *throttle, dbg.Trace)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		fail("%v", err)
	case <-ctx.Done():
	}

	fmt.Println("capserve: draining...")
	srv.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Handlers are still running (drain timeout hit): closing now
		// would block on their in-flight divisions. Report and go.
		fmt.Fprintf(os.Stderr, "capserve: shutdown: %v (skipping runtime close)\n", err)
	} else {
		// Close waits for in-flight workers, then retires the parked
		// per-context worker goroutines — the full runtime shutdown, of
		// which the old Join was just the first half.
		rt.Close()
	}
	plane.Close()
	fmt.Printf("capserve: final stats: %s\n", rt.Stats())
}

// parseCaps turns "quicksort=65536,lzw=32768" into a cap map. A non-zero
// def (-maxn) applies to every workload not named in s; otherwise
// unnamed workloads keep capserve's per-workload defaults.
// capserve.Config validates names.
func parseCaps(s string, def int) (map[string]int, error) {
	caps := map[string]int{}
	if def != 0 {
		for _, wl := range workloads.NativeNames() {
			caps[wl] = def
		}
	}
	if s == "" {
		return caps, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -caps entry %q (want workload=n)", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("bad -caps value in %q: %v", kv, err)
		}
		caps[name] = n
	}
	return caps, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "capserve: "+format+"\n", args...)
	os.Exit(1)
}
