// Package capcluster carries the probe/divide protocol across the
// process boundary: a routing front end that treats a fleet of capserve
// backends' free capacity as a pool of *remote contexts* and applies the
// paper's admission discipline to it, one resource tier above
// internal/capsule.
//
// The layering is the point. The simulator's SOMT answers nthr from a
// hardware context table; the native runtime answers it from an atomic
// token stack; this package answers it from a per-backend credit gauge —
// in every tier the probe is a local memory operation, cheap enough to
// make at every division point, and a refusal degrades to the tier
// below:
//
//	remote probe granted → dispatch to the chosen backend
//	remote probe refused → the router's own capsule.Runtime (capserve)
//	local context busy   → the request runs sequentially
//
// The mapping from the runtime's mechanisms to the cluster's:
//
//   - context tokens   → backend credits: in-flight dispatches vs. the
//     capacity the backend advertises (the /debug/credits push feed, with
//     the headroom header on every reply as its fallback). ProbeRemote is
//     a breaker check plus one CAS — the deny path touches no network and
//     allocates nothing;
//   - kthr / deaths    → backend errors, timeouts and 5xx responses,
//     recorded in a per-backend failure ring;
//   - death throttling → the breaker: enough failures inside the window
//     deny that backend's probes until the window drains, and the first
//     probe after the drain is the half-open trial;
//   - LIFO warm reuse  → placement: each request probes the backend with
//     the most free credits first, then walks the fleet in ring order.
//
// A dispatch that dies retries the next backend (requests are pure
// functions of (workload, n, seed), so retries are safe) and falls back
// to the local tier only when every remote probe refused or failed —
// which is how a killed backend redistributes with zero failed client
// requests.
//
// The Router is only the /run front of its local capserve.Server: a
// routing process's /healthz, /metrics, index and /debug/* endpoints are
// that server's, so it has one drain switch, one exposition and one
// mount point, exactly as a lone capserve does.
package capcluster

import (
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/capserve"
	"repro/internal/captrace"
)

// Response headers the router stamps so clients and load generators can
// see where a request actually ran.
const (
	// HeaderRoute is "remote" or "local" (the fallback tier).
	HeaderRoute = "X-Capcluster-Route"
	// HeaderBackend is the serving backend's name (host:port), remote
	// routes only.
	HeaderBackend = "X-Capcluster-Backend"
)

// statusClientClosed mirrors capserve's 499: the client hung up before
// the router could finish.
const statusClientClosed = 499

// Fixed routing parameters: no deployment has needed another value,
// and a test that needs them shorter runs the router on a faster or a
// hand-driven clock (clock.go) instead of changing them.
const (
	// initialCredits is the per-backend credit ceiling spent before the
	// first feed delta or header teaches the real capacity, and the
	// target the Refresh decay pass moves a stale gauge toward.
	initialCredits = 4
	// creditCap caps learned credits so a corrupt header cannot open
	// the floodgates.
	creditCap = 1024
	// dispatchTimeout bounds one request's whole remote walk, end to end.
	dispatchTimeout = 10 * time.Second
	// attemptTimeout bounds one dispatch *attempt*, carved from the
	// remaining dispatchTimeout budget: each attempt runs under
	// min(attemptTimeout, budget left), so a black-holing backend costs
	// one attempt, not the request, and the walk across the fleet still
	// finishes inside dispatchTimeout.
	attemptTimeout = 2 * time.Second
	// failThreshold deaths inside the trailing failWindow trip a
	// backend's breaker.
	failThreshold = 3
	failWindow    = 2 * time.Second
	// trialBackoff is the base delay of the jittered exponential backoff
	// between failed half-open trials (see scheduleTrial): after the k-th
	// consecutive trial failure the next trial also waits
	// ~trialBackoff·2^(k-1), so a fleet of routers re-probing a
	// struggling backend doesn't line its trials up into a herd.
	trialBackoff = 100 * time.Millisecond
	// staleTTL is how long a backend's credit gauge stays trusted after
	// its last live signal (push delta or response header). Past it with
	// both sources quiet, each Refresh decays the gauge toward
	// initialCredits instead of serving stale capacity forever. Six of
	// capserve's 500 ms feed heartbeats fit inside, so one dropped event
	// never marks a healthy feed stale. It is also the feed watchdog's
	// silence limit.
	staleTTL = 3 * time.Second
	// feedBackoff is the base of the jittered exponential backoff between
	// credit-feed reconnect attempts — same shape and same per-backend
	// jitter as the half-open trial backoff, so a fleet of routers losing
	// the same backend doesn't resubscribe in lockstep.
	feedBackoff = 100 * time.Millisecond
	// Slow-backend ejection (CheckSlow): a backend is ejected when its
	// dispatch p99 over the interval exceeds slowFactor × its peers'
	// median p99 and slowMinP99 — sub-floor latency is healthy by
	// definition — with at least slowMinSamples relayed dispatches in the
	// interval backing the estimate.
	slowFactor     = 4.0
	slowMinP99     = 25 * time.Millisecond
	slowMinSamples = 16
)

// Config parameterises a Router.
type Config struct {
	// Backends are the capserve base URLs the router shards over. May be
	// empty: a router with no fleet is just its local tier.
	Backends []string

	// Local is the fallback tier — a capserve.Server on the router's own
	// runtime — and the handler for everything the fleet refuses.
	// Required.
	Local *capserve.Server

	// Transport overrides the transport of dispatches and credit-feed
	// subscriptions alike. Default: a clone of http.DefaultTransport with
	// the per-backend idle-connection pool widened (see defaultTransport
	// in client.go) so sustained routing reuses connections instead of
	// re-dialing through the default idle cap of 2.
	Transport http.RoundTripper
}

// Validate reports whether cfg can build a Router.
func (cfg Config) Validate() error {
	if cfg.Local == nil {
		return fmt.Errorf("capcluster: Config.Local (the fallback capserve.Server) is required")
	}
	seen := map[string]bool{}
	for _, b := range cfg.Backends {
		u, err := url.Parse(b)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("capcluster: backend %q is not an http(s) base URL", b)
		}
		// A backend is named by its host:port: a second entry would keep a
		// second credit gauge for the same capacity and a second copy of
		// its labelled series.
		if seen[u.Host] {
			return fmt.Errorf("capcluster: backend %s is listed twice", u.Host)
		}
		seen[u.Host] = true
	}
	return nil
}

// Router is the cluster front end: the /run/{workload} front of its
// local capserve.Server. Every other path — /healthz, /metrics, the
// index at /, the debug planes mounted with Local().Mount — goes to
// that server, drained with Local().SetDraining; New adds the
// caprouter_* and capcluster_* series to its /metrics. The one path the
// router refuses (404) is the local server's credit feed: the local
// tier's queue is not what this process offers the fleet.
type Router struct {
	backends []*Backend
	local    *capserve.Server
	client   *http.Client // dispatches and feed subscriptions: no client timeout, each attempt and each feed event is bounded on the clock
	clock    *clock
	mux      *http.ServeMux

	tracer *captrace.Tracer // the local tier's: route spans and fallback runs share one ring set

	requests       atomic.Uint64
	remoteProbes   atomic.Uint64
	remoteGrants   atomic.Uint64
	localFallbacks atomic.Uint64
	clientGone     atomic.Uint64

	// Serving-tier outcome counters: which rung of the degradation
	// ladder finally produced each 2xx response (the
	// caprouter_fallback_tier_total series), and the 4xx answers, which
	// are the client's fault on whichever rung gave them.
	tierRemote       atomic.Uint64 // dispatched to a backend
	tierLocalRuntime atomic.Uint64 // local fallback, divisions offered
	tierSequential   atomic.Uint64 // local fallback, degraded to sequential
	clientFaults     atomic.Uint64 // 4xx from a backend or the local tier
}

// New builds a Router from cfg and adds its series to cfg.Local's
// /metrics. Build it before Local starts serving.
func New(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	transport := cfg.Transport
	if transport == nil {
		transport = defaultTransport(creditCap)
	}
	r := &Router{
		local:  cfg.Local,
		client: &http.Client{Transport: transport},
		clock:  newClock(),
		mux:    http.NewServeMux(),
		tracer: cfg.Local.Runtime().Tracer(),
	}
	for i, base := range cfg.Backends {
		u, _ := url.Parse(base) // validated above
		r.backends = append(r.backends, newBackend(base, u.Host, i, r.clock))
	}
	r.mux.HandleFunc("GET /run/{workload}", r.handleRun)
	r.mux.Handle("GET "+capserve.CreditsPath, http.NotFoundHandler())
	r.mux.Handle("/", cfg.Local)
	cfg.Local.AddMetrics(r.writeMetrics)
	return r, nil
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Backends returns the fleet in configuration order.
func (r *Router) Backends() []*Backend { return r.backends }

// Local returns the fallback tier: the server that answers everything
// but /run, and so the one to drain (SetDraining) and mount on.
func (r *Router) Local() *capserve.Server { return r.local }

// leastLoaded picks the backend a request probes first: the one with the
// widest credits-minus-inflight gap — the cluster analogue of granting
// the context at the top of the free stack, sending work where headroom
// is as the gauges see it right now. Ties go to the lowest index; a fleet
// with no headroom anywhere returns 0 and lets the probes refuse. One
// load per backend, no allocation: it sits on the request hot path.
func leastLoaded(backends []*Backend) int {
	best, bestFree := 0, int(-1)<<31
	for i, b := range backends {
		g := b.gauge.Load()
		if free := int(uint32(g>>32)) - int(uint32(g)); free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// handleRun is the cluster-scope division point. Remote probes walk the
// fleet in ring order from the least-loaded backend; the first grant
// dispatches. A shed or death moves on to the next backend (each probed
// at most once), and when the whole fleet has refused or failed the
// request degrades to the local tier — capserve, which may degrade it
// once more to sequential. The request itself never fails on a
// backend's account.
func (r *Router) handleRun(w http.ResponseWriter, req *http.Request) {
	r.requests.Add(1)

	// Trace identity first, so every outcome — even a 400 on a bad
	// parameter — carries the ID the client stamped. The route span
	// opens here.
	tid, traced := r.tracer.Identify(req)
	if tid != 0 {
		w.Header().Set(captrace.HeaderTraceID, captrace.FormatID(tid))
	}
	r.trace(traced, captrace.KRouteRecv, tid, 0, uint32(len(r.backends)))

	if n := len(r.backends); n > 0 {
		first := leastLoaded(r.backends)
		// The whole remote walk shares one budget: each attempt runs
		// under min(attemptTimeout, budget left), so retries after a
		// stalled backend shrink, never extend, the request's bound.
		deadline := r.clock.now() + int64(dispatchTimeout)
		for i := 0; i < n; i++ {
			b := r.backends[(first+i)%n]
			r.remoteProbes.Add(1)
			if !b.probe() {
				continue
			}
			r.remoteGrants.Add(1)
			// The dispatch span records which backend won and the credit
			// snapshot that justified it — the router's routing decision,
			// reconstructable per request.
			r.trace(traced, captrace.KRouteDispatch, tid, uint16(b.id), uint32(b.Credits()))
			start := time.Now()
			switch out := r.dispatch(w, req, b, deadline, tid, traced); out {
			case dispatched, clientFault:
				elapsed := time.Since(start)
				b.dispatchLatency.Observe(elapsed)
				r.trace(traced, captrace.KRouteServed, tid, uint16(b.id), captrace.DurUS(elapsed))
				if out == clientFault {
					r.clientFaults.Add(1)
				} else {
					r.tierRemote.Add(1)
				}
				return
			case clientGone:
				r.clientGone.Add(1)
				w.WriteHeader(statusClientClosed)
				return
			case shed:
				r.trace(traced, captrace.KRouteShed, tid, uint16(b.id), 0)
			case died:
				r.trace(traced, captrace.KRouteDeath, tid, uint16(b.id), captrace.DurUS(time.Since(start)))
			}
			// shed or died: probe the next backend.
		}
	}

	// Every remote tier refused or failed: degrade to the local runtime.
	// The identity rides the request context, not the header, so the
	// local capserve reuses it verbatim (and respects this tier's
	// sampling decision) instead of re-deciding.
	r.localFallbacks.Add(1)
	if tid != 0 {
		req = req.WithContext(captrace.WithRequest(req.Context(), tid, traced))
	}
	w.Header().Set(HeaderRoute, "local")
	sw := &statusWriter{ResponseWriter: w}
	lstart := time.Now()
	r.local.ServeHTTP(sw, req)

	// Classify which rung of the ladder actually served the request:
	// capserve marks sequential-degraded 200s with X-Capserve-Degraded.
	// Tier 0 in the fallback span means no rung served it: a 4xx (the
	// client's fault, as on the remote rung) or the local tier failing
	// too (shed or error) — the request died on the bottom rung.
	var tier uint16
	switch {
	case sw.status >= 200 && sw.status < 300:
		if w.Header().Get(capserve.HeaderDegraded) == "1" {
			tier = captrace.TierSequential
			r.tierSequential.Add(1)
		} else {
			tier = captrace.TierLocalRuntime
			r.tierLocalRuntime.Add(1)
		}
	case sw.status >= 400 && sw.status < 500:
		r.clientFaults.Add(1)
	}
	r.trace(traced, captrace.KRouteFallback, tid, tier, captrace.DurUS(time.Since(lstart)))
}

// Refresh is the credit gauges' decay pass: every backend that has sent
// no feed delta and no headroom header within staleTTL moves its
// gauge halfway toward initialCredits (decayStale). It is what recovers
// a backend parked at zero credits while its feed is down — no dispatch
// means no header to teach it — and what stops a stale-high gauge from
// over-committing a backend nobody has heard from. It touches no
// network itself, but it wakes a stale backend's feed subscriber out of
// its reconnect backoff, so a backend that comes back is resubscribed —
// and its capacity relearned from the stream's snapshot — within one
// tick. cmd/capserve runs it on a 1 s ticker; tests call it directly.
func (r *Router) Refresh() {
	for _, b := range r.backends {
		if b.stale() {
			b.decayStale()
			select {
			case b.feedWake <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}
}
