// Package capwatch is the continuous-telemetry leg of the repo's
// observability story: where /metrics is a point-in-time scrape and
// captrace is per-request, capwatch keeps *history* — a fixed-size ring
// of periodic snapshots over every tier's counters, rolled up on demand
// into rates, windowed latency quantiles and SLO error-budget burn.
// It is the signal plane the ROADMAP's SLO-driven adaptive admission
// item needs: a controller cannot act on point-in-time counters, it
// needs p99-over-the-last-5-minutes and budget burn, and those require
// exactly this ring.
//
// The design is McKenney's statistical-counter discipline (as in the
// captrace rings): the write side — every probe, divide, request,
// dispatch — only ever touches its own tier's atomic counters and never
// knows the sampler exists; the sampler is a *reader* of those
// counters that pays the full aggregation cost itself, once a second,
// on its own goroutine. Arming a sampler therefore costs the
// probe/divide hot path nothing (the watch_overhead benchmark pairs
// hold the probe paths to ≤2%), and a tick is allocation-free after the first
// one warms the runtime/metrics buffers.
//
// Ring protocol: one writer (the tick loop), slots overwritten in claim
// order, a single atomic cursor bump publishing each snapshot. Readers
// (the /debug/watch handler, /metrics) take a read-lock that only the
// once-a-second writer ever holds exclusively — the lock serializes
// sampler readers against slot reuse, never the serving hot path.
package capwatch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
)

// DefaultInterval is the sampling tick.
const DefaultInterval = time.Second

// Ring sizing limits. The default ring is auto-sized so the SLO's slow
// window fits in retained history with slack; maxRing caps the memory
// an extreme interval/window combination could demand (a slot is a
// couple of KB — 16384 slots is tens of MB, past which an operator
// should lengthen the interval instead).
const (
	minRing = 64
	maxRing = 16384
)

// Config parameterises a Sampler. Runtime is required; Server and
// Router widen the snapshot to the serving and cluster tiers.
type Config struct {
	// Source names this sampler's reports, so merged /debug/watch
	// responses (router + spawned backends) stay attributable.
	// Default: "capwatch".
	Source string

	// Interval is the sampling tick. Default: DefaultInterval.
	Interval time.Duration

	// Ring is the snapshot ring's slot count, rounded up to a power of
	// two. Default (0): sized so the SLO slow window fits (clamped to
	// [minRing, maxRing]).
	Ring int

	// Runtime is the capsule runtime to sample. Required.
	Runtime *capsule.Runtime

	// Server, when set, adds queue occupancy and per-endpoint serving
	// counters (requests, sheds, latency buckets) to each snapshot.
	Server *capserve.Server

	// Router, when set, adds the cluster tier: per-backend credit
	// gauges, breaker state, dispatch latencies and the fallback-tier
	// counters.
	Router *capcluster.Router

	// SLO configures the burn-rate evaluator (zero fields take
	// defaults; see SLOConfig).
	SLO SLOConfig
}

// Validate reports whether cfg can build a Sampler.
func (cfg Config) Validate() error {
	if cfg.Runtime == nil {
		return fmt.Errorf("capwatch: Config.Runtime is required")
	}
	if cfg.Interval < 0 {
		return fmt.Errorf("capwatch: Interval must be >= 0 (0 means %v), got %v", DefaultInterval, cfg.Interval)
	}
	if cfg.Ring < 0 {
		return fmt.Errorf("capwatch: Ring must be >= 0 (0 means auto), got %d", cfg.Ring)
	}
	return cfg.SLO.validate()
}

// Sample is one snapshot: every tier's cumulative counters plus the
// instantaneous gauges, stamped once per tick. Slices are preallocated
// per ring slot and rewritten in place, so a tick allocates nothing.
type Sample struct {
	// TS is the snapshot time (UnixNano).
	TS int64 `json:"ts"`

	// Capsule tier.
	Capsule      capsule.Stats `json:"capsule"`
	FreeContexts int           `json:"free_contexts"`

	// Serving tier (zero unless Config.Server was set).
	QueueDepth     int                         `json:"queue_depth"`
	QueueOccupancy int                         `json:"queue_occupancy"`
	Endpoints      []capserve.EndpointCounters `json:"endpoints,omitempty"`

	// Cluster tier (zero unless Config.Router was set).
	Router   capcluster.RouterCounters    `json:"router"`
	Backends []capcluster.BackendCounters `json:"backends,omitempty"`

	// Go runtime health.
	Go GoStats `json:"go"`
}

// Sampler owns the snapshot ring. Build with New, arm with Start, read
// with Report / Snapshot / the Handler it backs.
type Sampler struct {
	cfg      Config
	source   string
	interval time.Duration
	slo      SLOConfig

	workloads    []string
	backendNames []string
	bounds       []float64 // latency bucket bounds, seconds

	// mu serializes ring readers against slot reuse: the tick holds it
	// exclusively for the microseconds one collect takes, once per
	// interval; readers share it. Nothing on the probe/divide or
	// request path ever touches it.
	mu     sync.RWMutex
	ring   []Sample
	mask   uint64
	cursor atomic.Uint64 // snapshots published; next claim

	rm rmReader // preallocated runtime/metrics buffers

	// hook is the capscope attachment point: a copy-on-write function
	// pointer run after every published snapshot, outside the ring lock.
	// Disarmed cost is one nil atomic load per tick — the hot paths
	// never see it at all (the tick goroutine pays it).
	hook atomic.Pointer[func()]

	// incidents supplies the capscope_incidents_total count for
	// Report/WriteMetrics; nil until a recorder registers itself.
	incidents atomic.Pointer[func() uint64]

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	loopWG    sync.WaitGroup
}

// New builds a Sampler from cfg. The ring and every slot's slices are
// allocated here, up front, so SampleNow never allocates.
func New(cfg Config) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sampler{
		cfg:      cfg,
		source:   cfg.Source,
		interval: cfg.Interval,
		slo:      cfg.SLO.withDefaults(),
		bounds:   capserve.LatencyBucketBounds(),
		stop:     make(chan struct{}),
	}
	if s.source == "" {
		s.source = "capwatch"
	}
	if s.interval == 0 {
		s.interval = DefaultInterval
	}
	if cfg.Server != nil {
		s.workloads = cfg.Server.Workloads()
	}
	if cfg.Router != nil {
		s.backendNames = cfg.Router.BackendNames()
	}

	size := cfg.Ring
	if size == 0 {
		// Auto-size: the slow SLO window plus slack must stay resident,
		// or the evaluator would silently judge a shorter period.
		size = int(s.slo.SlowWindow/s.interval) + 2
	}
	size = clampPow2(size)
	s.ring = make([]Sample, size)
	s.mask = uint64(size - 1)
	for i := range s.ring {
		if len(s.workloads) > 0 {
			s.ring[i].Endpoints = make([]capserve.EndpointCounters, len(s.workloads))
		}
		if len(s.backendNames) > 0 {
			s.ring[i].Backends = make([]capcluster.BackendCounters, len(s.backendNames))
		}
	}
	s.rm.init()
	return s, nil
}

// clampPow2 rounds n up to a power of two inside [minRing, maxRing].
func clampPow2(n int) int {
	if n < minRing {
		n = minRing
	}
	if n > maxRing {
		n = maxRing
	}
	p := minRing
	for p < n {
		p <<= 1
	}
	return p
}

// Source returns the sampler's report label.
func (s *Sampler) Source() string { return s.source }

// Interval returns the sampling tick.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Samples returns the number of snapshots taken since construction
// (not capped at the ring size).
func (s *Sampler) Samples() uint64 { return s.cursor.Load() }

// RingSize returns the ring's slot count.
func (s *Sampler) RingSize() int { return len(s.ring) }

// Start arms the sampler: a goroutine takes one snapshot immediately
// and then one per interval until Stop. Idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		s.loopWG.Add(1)
		go s.loop()
	})
}

// Stop halts the tick goroutine and returns once it has exited, so no
// sample lands after Stop. The ring stays readable. Idempotent.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.loopWG.Wait()
}

func (s *Sampler) loop() {
	defer s.loopWG.Done()
	s.SampleNow() // an armed sampler is never empty
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.SampleNow()
		}
	}
}

// SampleNow takes one snapshot immediately: collect into the next ring
// slot under the write lock, publish with one cursor bump. The tick
// loop calls it; tests and on-demand callers may too (the lock
// serializes concurrent writers). Allocation-free after the first call
// warms the runtime/metrics buffers.
func (s *Sampler) SampleNow() {
	s.mu.Lock()
	c := s.cursor.Load()
	s.collect(&s.ring[c&s.mask])
	s.cursor.Store(c + 1)
	s.mu.Unlock()
	// The hook runs after the unlock: it reads the ring back through
	// Report/SLO, which take the read lock.
	if f := s.hook.Load(); f != nil {
		(*f)()
	}
}

// OnSample installs f to run on the sampling goroutine after each
// published snapshot (nil uninstalls). Copy-on-write: the disarmed
// check in SampleNow is a single atomic pointer load. f may read the
// ring (Report, SLO, Snapshot) but must not call SampleNow.
func (s *Sampler) OnSample(f func()) {
	if f == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&f)
}

// SetIncidents registers a supplier for the incident count carried in
// Report.Incidents and the capwatch exposition (capscope wires its
// recorder's counter here so captop can show an `inc` column without a
// second fetch).
func (s *Sampler) SetIncidents(f func() uint64) {
	if f == nil {
		s.incidents.Store(nil)
		return
	}
	s.incidents.Store(&f)
}

// SLO evaluates the burn-rate objectives against the ring right now.
// This is the same evaluator /debug/watch embeds in every Report,
// exported so trigger logic (capscope) can poll it per tick.
func (s *Sampler) SLO() SLOReport { return s.evalSLO() }

// collect fills one slot in place. Every read here is an atomic load
// against counters the hot paths own — the whole aggregation cost of
// the McKenney split, paid on this side.
func (s *Sampler) collect(slot *Sample) {
	slot.TS = time.Now().UnixNano()
	slot.Capsule = s.cfg.Runtime.Stats()
	slot.FreeContexts = s.cfg.Runtime.FreeContexts()
	if srv := s.cfg.Server; srv != nil {
		slot.QueueDepth = srv.QueueDepth()
		slot.QueueOccupancy = srv.QueueOccupancy()
		srv.ReadEndpointCounters(slot.Endpoints)
	}
	if rt := s.cfg.Router; rt != nil {
		slot.Router = rt.ReadCounters()
		rt.ReadBackendCounters(slot.Backends)
	}
	s.rm.read(&slot.Go)
}

// Snapshot deep-copies the newest n snapshots (0 or more than
// resident: all resident), oldest first. The copies share nothing with
// the ring, so callers may hold them across ticks.
func (s *Sampler) Snapshot(n int) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := s.cursor.Load()
	resident := cur
	if resident > uint64(len(s.ring)) {
		resident = uint64(len(s.ring))
	}
	if n <= 0 || uint64(n) > resident {
		n = int(resident)
	}
	out := make([]Sample, n)
	for i := 0; i < n; i++ {
		claim := cur - uint64(n-i)
		cloneSample(&out[i], &s.ring[claim&s.mask])
	}
	return out
}

// window locates the newest snapshot and the oldest one still inside
// the requested window, deep-copied; n is the snapshot count spanned
// (inclusive). ok is false while the ring is empty.
func (s *Sampler) window(d time.Duration) (from, to Sample, n int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := s.cursor.Load()
	if cur == 0 {
		return Sample{}, Sample{}, 0, false
	}
	newest := cur - 1
	cloneSample(&to, &s.ring[newest&s.mask])
	cutoff := to.TS - d.Nanoseconds()
	oldest := newest
	lowest := uint64(0)
	if cur > uint64(len(s.ring)) {
		lowest = cur - uint64(len(s.ring))
	}
	for oldest > lowest && s.ring[(oldest-1)&s.mask].TS >= cutoff {
		oldest--
	}
	cloneSample(&from, &s.ring[oldest&s.mask])
	return from, to, int(newest-oldest) + 1, true
}

// cloneSample copies src into dst with fresh slice backing, sized to
// src (dst is reused across reads where possible).
func cloneSample(dst *Sample, src *Sample) {
	eps, bks := dst.Endpoints, dst.Backends
	*dst = *src
	if cap(eps) < len(src.Endpoints) {
		eps = make([]capserve.EndpointCounters, len(src.Endpoints))
	}
	dst.Endpoints = eps[:len(src.Endpoints)]
	copy(dst.Endpoints, src.Endpoints)
	if cap(bks) < len(src.Backends) {
		bks = make([]capcluster.BackendCounters, len(src.Backends))
	}
	dst.Backends = bks[:len(src.Backends)]
	copy(dst.Backends, src.Backends)
}
