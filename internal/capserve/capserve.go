// Package capserve is the capsule-native serving layer: every native
// workload (QuickSort, Dijkstra, LZW, Perceptron) becomes an HTTP
// endpoint backed by one shared capsule.Runtime, and the paper's
// admission-control idea — components *offer* parallelism, the hardware
// accepts only when resources are free — becomes the server's load
// policy, applied at two levels:
//
//   - per request: a bounded accept queue caps in-flight requests; when
//     it is full the server sheds with 503 instead of queueing
//     unboundedly (the serving analogue of a refused division: the work
//     stays with the offerer, here the client);
//   - per division: an admitted request peeks at the context pool — if
//     a token is free it runs on a per-request Group and divides at the
//     workload's own probe sites; if not, it degrades to the Sequential
//     domain and runs inline on the handler goroutine, making no
//     further offers (the CapC sequential fallback path, lifted to
//     request granularity). The peek is not a probe, so
//     capsule_grant_rate reflects real division offers only.
//
// /metrics exports the runtime's Stats plus per-endpoint request counts
// and latency histograms in Prometheus text format, so the paper's
// "% divisions allowed" (Table 3) is a live serving observable:
// capsule_grant_rate.
package capserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/workloads"
)

// DefaultMaxN caps request input sizes for linear-cost workloads with no
// explicit entry in Config.MaxN. It bounds per-request memory (a
// quicksort request allocates ~2 slices of n int64s) and time without
// getting in honest traffic's way.
const DefaultMaxN = 1 << 20

// Headroom headers: every /run response advertises the server's
// instantaneous free capacity, so a routing tier (internal/capcluster)
// can keep a local credit gauge per backend and answer its remote probes
// without a network round-trip — the response traffic it already has IS
// the capacity feed.
const (
	// HeaderQueueFree is the number of accept-queue slots free at
	// response time (the responding request still holds its own slot, so
	// the value is conservative by exactly the in-flight requests).
	HeaderQueueFree = "X-Capserve-Queue-Free"
	// HeaderDegraded marks a 200 response whose run was admitted without
	// division headroom and executed on the Sequential domain. The
	// routing tier reads it off its local-fallback responses to tell the
	// two degradation tiers apart (local-runtime vs sequential).
	HeaderDegraded = "X-Capserve-Degraded"
)

// defaultCaps are the per-workload default input caps. They bound
// worst-case per-request *time*, not just memory, so they track each
// algorithm's cost curve: dijkstra's flooding exploration is superlinear
// in n (n=10000 is already seconds of CPU sequentially), so its cap is
// orders of magnitude below the linear workloads'. Config.MaxN overrides
// per workload.
var defaultCaps = map[string]int{
	"quicksort":  DefaultMaxN,
	"lzw":        DefaultMaxN,
	"perceptron": 1 << 17,
	"dijkstra":   10000,
}

// Config parameterises a Server.
type Config struct {
	// Runtime is the shared capsule runtime all endpoints divide on.
	// Required.
	Runtime *capsule.Runtime

	// QueueDepth bounds admitted (in-flight) requests; a request that
	// arrives with the queue full is shed with 503. Default: 4 × the
	// runtime's context count.
	QueueDepth int

	// MaxN caps the n parameter per workload. Keys must be native
	// workload names, values must be positive; missing workloads take
	// the per-workload defaults (defaultCaps). The caps are the server's
	// only bound on per-request cost — a run, once dispatched, is not
	// cancellable mid-flight — so raise them deliberately.
	MaxN map[string]int

	// Tracer receives the serving-tier lifecycle events. Default (nil): inherit the Runtime's tracer,
	// so wiring a tracer into the runtime Config is the only step needed
	// to get both tiers recorded into one ring set. Explicitly leaving
	// both nil disables request tracing entirely.
	Tracer *captrace.Tracer

	// TraceSample is the 1-in-N sampling rate for server-generated trace
	// IDs (adopted client/router IDs are always traced). Default (0):
	// DefaultTraceSample. 1 traces every request — CI smoke territory,
	// not production.
	TraceSample int

	// FeedHeartbeat is the idle republish interval of the /debug/credits
	// push feed: subscribed routers see a delta at least this often even
	// with no traffic, which is what keeps their staleness TTLs satisfied
	// on a quiet fleet. Default: DefaultFeedHeartbeat.
	FeedHeartbeat time.Duration
}

// Validate reports whether cfg can build a Server.
func (cfg Config) Validate() error {
	if cfg.Runtime == nil {
		return fmt.Errorf("capserve: Config.Runtime is required")
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("capserve: QueueDepth must be >= 0 (0 means 4x contexts), got %d", cfg.QueueDepth)
	}
	if cfg.TraceSample < 0 {
		return fmt.Errorf("capserve: TraceSample must be >= 0 (0 means %d), got %d", DefaultTraceSample, cfg.TraceSample)
	}
	if cfg.FeedHeartbeat < 0 {
		return fmt.Errorf("capserve: FeedHeartbeat must be >= 0 (0 means default), got %v", cfg.FeedHeartbeat)
	}
	known := map[string]bool{}
	for _, wl := range workloads.NativeNames() {
		known[wl] = true
	}
	for wl, n := range cfg.MaxN {
		if !known[wl] {
			return fmt.Errorf("capserve: MaxN names unknown workload %q (have %v)", wl, workloads.NativeNames())
		}
		if n <= 0 {
			return fmt.Errorf("capserve: MaxN[%q] must be > 0, got %d", wl, n)
		}
	}
	return nil
}

// Server serves the native workloads over HTTP. Build with New, mount
// anywhere (it implements http.Handler), and on shutdown call
// SetDraining(true) before http.Server.Shutdown so health checks fail
// fast while in-flight requests finish.
type Server struct {
	rt        *capsule.Runtime
	queue     chan struct{}
	maxN      map[string]int
	workloads []string // fixed endpoint order (NativeNames)
	eps       map[string]*endpoint
	mux       *http.ServeMux
	start     time.Time
	draining  atomic.Bool

	tracer  *captrace.Tracer
	sampler *captrace.Sampler

	// feed is the /debug/credits push plane (feed.go); feedHeartbeat is
	// its idle republish interval.
	feed          creditFeed
	feedHeartbeat time.Duration

	shed     atomic.Uint64
	notFound atomic.Uint64

	// extraMetrics are appended to /metrics after the server's own
	// series (AddMetrics) — how capwatch's capwatch_* series join the
	// exposition without capserve importing the sampler.
	extraMetrics []func(io.Writer)
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 4 * cfg.Runtime.Contexts()
	}
	sample := cfg.TraceSample
	if sample == 0 {
		sample = DefaultTraceSample
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = cfg.Runtime.Tracer()
	}
	heartbeat := cfg.FeedHeartbeat
	if heartbeat == 0 {
		heartbeat = DefaultFeedHeartbeat
	}
	s := &Server{
		rt:            cfg.Runtime,
		queue:         make(chan struct{}, depth),
		maxN:          map[string]int{},
		workloads:     workloads.NativeNames(),
		eps:           map[string]*endpoint{},
		mux:           http.NewServeMux(),
		start:         time.Now(),
		tracer:        tracer,
		sampler:       captrace.NewSampler(sample),
		feedHeartbeat: heartbeat,
	}
	for _, wl := range s.workloads {
		s.eps[wl] = &endpoint{}
		if cap, ok := defaultCaps[wl]; ok {
			s.maxN[wl] = cap
		} else {
			s.maxN[wl] = DefaultMaxN // a workload added without a tuned cap
		}
	}
	for wl, n := range cfg.MaxN {
		s.maxN[wl] = n
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/credits", s.handleCredits)
	s.mux.HandleFunc("GET /run/{workload}", s.handleRun)
	s.mux.HandleFunc("POST /run/{workload}", s.handleRun)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Runtime returns the shared runtime (for shutdown joins and final
// stats).
func (s *Server) Runtime() *capsule.Runtime { return s.rt }

// QueueDepth returns the accept-queue capacity.
func (s *Server) QueueDepth() int { return cap(s.queue) }

// SetDraining flips the health endpoint: while draining, /healthz
// returns 503 so load balancers stop routing here before Shutdown cuts
// the listener. Push-fed routers learn immediately: the transition is
// published on the /debug/credits feed (with Draining=true as the
// stream's final delta), so they stop dispatching here without waiting
// for a health poll.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
	s.feed.publish()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"workloads":   s.workloads,
		"max_n":       s.maxN,
		"queue_depth": cap(s.queue),
		"contexts":    s.rt.Contexts(),
		"endpoints":   []string{"/run/{workload}?n=&seed=", "/healthz", "/metrics"},
	})
}

// runRequest is the body POST /run/{workload} accepts; fields override
// the query parameters.
type runRequest struct {
	N    *int   `json:"n"`
	Seed *int64 `json:"seed"`
}

// runResponse is the JSON a successful run returns: the workload result
// plus the serving-level admission outcome and the request's own
// division counters.
type runResponse struct {
	*workloads.ServeResult
	Degraded  bool               `json:"degraded"`
	Divisions capsule.GroupStats `json:"divisions"`
}

// setHeadroom stamps the headroom header with the server's current free
// queue capacity. Called at admission (so sheds and errors carry it too)
// and again right before a 200 body, when the value is freshest.
func (s *Server) setHeadroom(h http.Header) {
	h.Set(HeaderQueueFree, strconv.Itoa(cap(s.queue)-len(s.queue)))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	wl := r.PathValue("workload")
	ep, ok := s.eps[wl]
	if !ok {
		s.notFound.Add(1)
		http.Error(w, fmt.Sprintf("unknown workload %q (have %v)", wl, s.workloads), http.StatusNotFound)
		return
	}
	s.setHeadroom(w.Header())

	// Trace identity before admission, so even a shed is attributable
	// to the ID the client (or router) stamped. The ID is echoed
	// whenever one exists — traced or merely sampled-out — so callers
	// always learn what to ask /debug/trace about.
	tid, traced := s.traceIdentity(r)
	if tid != 0 {
		w.Header().Set(captrace.HeaderTraceID, captrace.FormatID(tid))
	}

	// Bounded accept queue: full means shed now, not queue forever.
	// Each admission-queue transition is a credit event: the release
	// publishes on the push feed (one atomic load when nobody is
	// subscribed), so routers track headroom without a response in
	// flight to carry the header.
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue; s.feed.publish() }()
	default:
		s.shed.Add(1)
		s.feed.publish()
		ep.inc(http.StatusServiceUnavailable)
		s.trace(traced, captrace.KReqShed, tid, 0, 0)
		// Re-stamp: the admission-time stamp can predate the queue
		// filling, and a shed advertising stale positive headroom would
		// tell routers to keep sending to a saturated backend.
		s.setHeadroom(w.Header())
		w.Header().Set("Retry-After", "1")
		http.Error(w, "accept queue full, request shed", http.StatusServiceUnavailable)
		return
	}
	s.trace(traced, captrace.KReqAdmit, tid, 0, uint32(len(s.queue)))

	n, seed, err := s.parseParams(r)
	if err != nil {
		ep.inc(http.StatusBadRequest)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if maxN := s.maxN[wl]; n > maxN {
		ep.inc(http.StatusRequestEntityTooLarge)
		http.Error(w, fmt.Sprintf("n = %d exceeds the %q cap of %d", n, wl, maxN), http.StatusRequestEntityTooLarge)
		return
	}

	// The client may have hung up while the request waited its turn; a
	// dispatched run is not cancellable, so this is the last exit.
	if err := r.Context().Err(); err != nil {
		ep.inc(statusClientClosed)
		w.WriteHeader(statusClientClosed)
		return
	}

	// Request-level admission: peek at the runtime (free context AND
	// throttle quiescent — Probe's full condition). Divisible → run on a
	// per-request Group, offering parallelism at the workload's own
	// division points; not → degrade to the Sequential domain and stop
	// offering (the peek is not a probe, so the division grant rate
	// stays the paper's: real offers only).
	start := time.Now()
	var dom capsule.Domain
	var group *capsule.Group
	degraded := false
	if s.rt.CanDivide() {
		// A traced group tags the request's runtime events (probe
		// outcomes, handoffs, deaths) with its ID — the serving-tier →
		// runtime-event link in the waterfall. Untraced requests get a
		// tid-0 group, which records nothing.
		var gtid uint64
		if traced {
			gtid = tid
		}
		group = s.rt.NewGroupTraced(gtid)
		dom = group
	} else {
		dom = s.rt.Sequential()
		degraded = true
		ep.degraded.Add(1)
		s.trace(traced, captrace.KReqDegraded, tid, 0, 0)
	}

	res, err := workloads.RunRequest(dom, wl, n, seed)
	if err != nil {
		// Parameters were validated above, so this is a server-side
		// failure, not a client one.
		ep.inc(http.StatusInternalServerError)
		s.trace(traced, captrace.KReqDone, tid, http.StatusInternalServerError, durUS(time.Since(start)))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	resp := runResponse{ServeResult: res, Degraded: degraded}
	if group != nil {
		resp.Divisions = group.Stats()
	}
	ep.inc(http.StatusOK)
	elapsed := time.Since(start)
	ep.latency.Observe(elapsed)
	s.trace(traced, captrace.KReqDone, tid, http.StatusOK, durUS(elapsed))
	s.setHeadroom(w.Header()) // refresh: this is the value routers act on
	if degraded {
		w.Header().Set(HeaderDegraded, "1")
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// durUS packs a duration into the µs-resolution uint32 the trace event
// payload carries (saturating: ~71 minutes caps the field, far beyond
// any request this server dispatches).
func durUS(d time.Duration) uint32 {
	us := d.Microseconds()
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}

// parseParams reads n and seed from the query string, letting a JSON
// POST body override either. The body is read first so its fields truly
// override — a query value the body supersedes is never even parsed.
// Defaults: n=1000, seed=1.
func (s *Server) parseParams(r *http.Request) (n int, seed int64, err error) {
	n, seed = 1000, 1
	var body runRequest
	if r.Method == http.MethodPost && r.Body != nil && r.ContentLength != 0 {
		if derr := json.NewDecoder(r.Body).Decode(&body); derr != nil {
			return 0, 0, fmt.Errorf("bad JSON body: %v", derr)
		}
	}
	q := r.URL.Query()
	switch {
	case body.N != nil:
		n = *body.N
	default:
		if v := q.Get("n"); v != "" {
			n, err = strconv.Atoi(v)
			if err != nil {
				return 0, 0, fmt.Errorf("bad n %q: %v", v, err)
			}
		}
	}
	switch {
	case body.Seed != nil:
		seed = *body.Seed
	default:
		if v := q.Get("seed"); v != "" {
			seed, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad seed %q: %v", v, err)
			}
		}
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("n must be > 0 (got %d)", n)
	}
	return n, seed, nil
}
