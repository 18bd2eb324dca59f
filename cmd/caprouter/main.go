// Command caprouter is the cluster front end: it runs the probe/divide
// protocol over a fleet of capserve backends, treating each backend's
// free capacity as remote contexts (internal/capcluster). A request's
// remote probe is a local credit check — no network on the deny path —
// and refusals degrade to the router's own capsule runtime, then to
// sequential, exactly the paper's ladder one tier up.
//
// The fleet is either fronted (-backends lists running capserve URLs) or
// spawned (-spawn boots N in-process backends on loopback ports — one
// process, real TCP, handy for smoke tests and demos). Both can be
// combined.
//
// Usage:
//
//	caprouter -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	caprouter -addr :8090 -spawn 3 -spawn-contexts 2 -policy rendezvous
//	caprouter -addr :8090 -spawn 2 -credits 8 -fail-threshold 3 -fail-window 2s
//	caprouter -addr :8090 -spawn 2 -trace          # route spans on /debug/trace
//	caprouter -addr :8090 -spawn 3 -slo-p99 150ms  # fleet telemetry on /debug/watch
//	caprouter -addr :8090 -spawn 3 -fault -debug-addr localhost:6061  # fault injection on /debug/fault
//	caprouter -addr :8090 -spawn 3 -incident-dir /var/tmp/capscope    # burn-triggered bundles on /debug/incident
//	caprouter -addr :8090 -debug-addr localhost:6061
//
// Shutdown is graceful: SIGINT/SIGTERM flips /healthz to 503 first, then
// stops the listener, finishes in-flight requests (up to -drain), drains
// the spawned backends the same way, closes the local runtime, and
// prints the final cluster statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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
	"repro/internal/capsule"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated capserve base URLs to front")
	spawn := flag.Int("spawn", 0, "spawn this many in-process capserve backends on loopback ports")
	spawnContexts := flag.Int("spawn-contexts", 2, "context pool size per spawned backend")
	spawnQueue := flag.Int("spawn-queue", 0, "accept-queue depth per spawned backend (0 = 4x contexts)")
	policy := flag.String("policy", "least-loaded", "placement policy: least-loaded, round-robin, rendezvous")
	contexts := flag.Int("contexts", 0, "local fallback runtime context pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "local fallback accept-queue depth (0 = 4x contexts)")
	credits := flag.Int("credits", 0, "initial per-backend credits (0 = default)")
	maxCredits := flag.Int("max-credits", 0, "ceiling on learned credits (0 = default)")
	failThreshold := flag.Int("fail-threshold", 0, "backend failures tripping the breaker (0 = default)")
	failWindow := flag.Duration("fail-window", 0, "breaker window (0 = default)")
	timeout := flag.Duration("timeout", 0, "total per-request routing budget (0 = default)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-dispatch-attempt deadline carved from the budget (0 = default)")
	trialBackoff := flag.Duration("trial-backoff", 0, "base backoff between failed half-open trials, jittered and doubled per failure (0 = default)")
	slowCheck := flag.Duration("slow-check", capcluster.SlowCheckInterval, "slow-backend ejection cadence (0 disables)")
	slowFactor := flag.Float64("slow-factor", 0, "eject a backend whose dispatch p99 exceeds this multiple of its peers' median (0 = default)")
	slowMinP99 := flag.Duration("slow-min-p99", 0, "absolute p99 floor below which no backend is ejected (0 = default)")
	slowMinSamples := flag.Int("slow-min-samples", 0, "dispatches per interval a backend needs before slow ejection considers it (0 = default)")
	staleTTL := flag.Duration("stale-ttl", 0, "credit-gauge trust window: a backend with no feed delta and no response header inside it decays toward -credits (0 = default)")
	feedBackoff := flag.Duration("feed-backoff", 0, "base backoff between feed reconnect attempts, jittered and doubled per failure (0 = default)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	dbg := capdebug.Register(flag.CommandLine)
	flag.Parse()

	plane, err := dbg.NewPlane()
	if err != nil {
		fail("%v", err)
	}

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
		btr := dbg.NewTracer()
		brt, err := capsule.NewValidated(capsule.Config{
			Contexts: *spawnContexts,
			Throttle: true,
			Tracer:   btr,
		})
		if err != nil {
			fail("spawn backend %d: %v", i, err)
		}
		b, err := capserve.StartBackendOn(capserve.Config{
			Runtime:     brt,
			QueueDepth:  *spawnQueue,
			TraceSample: dbg.TraceSample,
		}, "127.0.0.1:0", wrapBackend)
		if err != nil {
			fail("spawn backend %d: %v", i, err)
		}
		name := strings.TrimPrefix(b.URL, "http://")
		m, err := plane.Add(name, btr, capdebug.Tiers{Runtime: brt, Server: b.Server}, filepath.Join(dbg.IncidentDir, name))
		if err != nil {
			fail("spawn backend %d: %v", i, err)
		}
		capdebug.Mount(b.Server.Mount, m)
		spawned = append(spawned, b)
		urls = append(urls, b.URL)
		fmt.Printf("caprouter: spawned backend %d at %s (contexts=%d)\n", i, b.URL, *spawnContexts)
	}

	place, err := capcluster.NewPlacement(*policy)
	if err != nil {
		fail("%v", err)
	}
	// One tracer serves the router span AND the local fallback tier, so a
	// degraded request's route events and its local runtime events land
	// in one ring set.
	tracer := dbg.NewTracer()
	localRT, err := capsule.NewValidated(capsule.Config{Contexts: *contexts, Throttle: true, Tracer: tracer})
	if err != nil {
		fail("%v", err)
	}
	local, err := capserve.New(capserve.Config{
		Runtime:     localRT,
		QueueDepth:  *queue,
		TraceSample: dbg.TraceSample,
	})
	if err != nil {
		fail("%v", err)
	}
	// The feed subscriptions get their own transport wrap so a ScopeFeed
	// rule can cut the push plane while dispatches stay healthy — the
	// fallback paths are only testable when the failure is selective.
	var dispatchRT, feedRT http.RoundTripper
	if plane.Fault != nil {
		dispatchRT = plane.Fault.Transport(capcluster.DefaultTransport(*maxCredits))
		feedRT = plane.Fault.FeedTransport(capcluster.DefaultTransport(*maxCredits))
	}
	router, err := capcluster.New(capcluster.Config{
		Backends:       urls,
		Local:          local,
		Placement:      place,
		Credits:        *credits,
		MaxCredits:     *maxCredits,
		FailThreshold:  *failThreshold,
		FailWindow:     *failWindow,
		Timeout:        *timeout,
		AttemptTimeout: *attemptTimeout,
		TrialBackoff:   *trialBackoff,
		SlowFactor:     *slowFactor,
		SlowMinP99:     *slowMinP99,
		SlowMinSamples: *slowMinSamples,
		StaleTTL:       *staleTTL,
		FeedBackoff:    *feedBackoff,
		Transport:      dispatchRT,
		FeedTransport:  feedRT,
		Tracer:         tracer,
		TraceSample:    dbg.TraceSample,
	})
	if err != nil {
		fail("%v", err)
	}

	// The router leads the plane: its member sees the fleet-level
	// triggers (SLO burn over merged dispatch latency, breaker trips, slow
	// ejections), and its mux serves every member's trace, watch report
	// and incident list — its own first.
	lead, err := plane.Add("caprouter", tracer, capdebug.Tiers{Runtime: localRT, Server: local, Router: router},
		filepath.Join(dbg.IncidentDir, "caprouter"))
	if err != nil {
		fail("%v", err)
	}
	capdebug.Mount(router.Mount, plane.Members...)
	plane.ServeDebug("caprouter")
	if lead.Recorder != nil {
		fmt.Printf("caprouter: incident recorders armed (router + %d backends), bundles under %s\n",
			len(spawned), dbg.IncidentDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(urls) > 0 {
		// The push plane: one subscription per backend, reconnecting with
		// jittered backoff for the process lifetime. Each subscription's
		// first delta teaches the backend's real capacity; response
		// headers are the fallback, and the decay pass below recovers a
		// gauge neither has refreshed within -stale-ttl.
		router.StartFeeds(ctx)
		fmt.Printf("caprouter: subscribed to %d backend credit feeds\n", len(urls))
	}
	every(ctx, time.Second, router.Refresh)
	if *slowCheck > 0 {
		// CheckSlow is single-caller by contract; this ticker is it.
		every(ctx, *slowCheck, func() { router.CheckSlow() })
	}

	hs := &http.Server{Addr: *addr, Handler: router}
	fmt.Printf("caprouter: listening on %s (backends=%d policy=%s local-contexts=%d)\n",
		*addr, len(urls), place.Name(), localRT.Contexts())

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fail("%v", err)
	case <-ctx.Done():
	}

	fmt.Println("caprouter: draining...")
	router.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	clean := true
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "caprouter: shutdown: %v\n", err)
		clean = false
	}
	for i, b := range spawned {
		if err := b.Close(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "caprouter: backend %d drain: %v\n", i, err)
			clean = false
		}
	}
	if clean {
		// In-flight handlers are done, so closing the local runtime
		// cannot block on live divisions.
		localRT.Close()
	}
	plane.Close()
	fmt.Printf("caprouter: final stats: %s\n", router.Stats())
	for _, b := range router.Backends() {
		bs := b.Stats()
		fmt.Printf("caprouter:   %s dispatched=%d served=%d sheds=%d deaths=%d\n",
			b.Name(), bs.Dispatches, bs.Served, bs.Sheds, bs.Deaths)
	}
	if !clean {
		os.Exit(1)
	}
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

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caprouter: "+format+"\n", args...)
	os.Exit(1)
}
