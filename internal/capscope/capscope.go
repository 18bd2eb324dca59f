// Package capscope is the incident-capture leg of the observability
// story — a black-box flight recorder for the fleet. The other three
// legs are ephemeral by design: /metrics is a point-in-time scrape,
// captrace rings rotate, capwatch windows slide. By the time an
// operator opens captop, the interesting 30 seconds are usually gone.
// capscope arms *triggers* on the signals those layers already compute
// and, the moment one fires, atomically captures a self-contained
// incident bundle — the capwatch rollup (burn rates, p99s), a captrace
// ring snapshot, a short CPU profile burst, heap profile, goroutine
// dump, build identity, the live capfault rule set and (on a router)
// the per-backend credit/breaker table — into a bounded on-disk ring
// of bundles that survives process restarts and graceful drains.
//
// The steady-state cost discipline matches captrace and capfault: a
// recorder that is not armed costs the process nothing, and an armed
// recorder costs the *sampling tick* (not any hot path) one atomic
// pointer load plus a handful of counter reads per second — the
// capwatch hook it rides on is copy-on-write, and every signal it
// evaluates is a read of counters the hot paths already maintain
// (McKenney's split, fourth application in this repo: writers never
// know the reader exists). TestArmedTickWithoutTriggerIsFree holds the
// armed tick to no counter moved, no capture and no file written, and
// TestArmedPlanesBesideDivideStorm runs it beside live probes under -race.
//
// Debounce: triggers are level- or edge-evaluated once per tick, and
// each trigger carries a cooldown — a sustained burn yields one bundle
// per cooldown, not one per tick. Captures run asynchronously (a CPU
// profile burst takes ProfileDuration); an in-flight capture causes
// concurrent trigger firings to be skipped, never queued.
package capscope

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// Defaults.
const (
	DefaultMaxBundles      = 8
	DefaultCooldown        = time.Minute
	DefaultProfileDuration = 250 * time.Millisecond
	DefaultTraceEvents     = 4096
	DefaultShedStormPerSec = 5.0
)

// Trigger names, recorded in every bundle manifest. One per anomaly
// class across the three tiers.
const (
	TriggerSLOExhausted = "slo_budget_exhausted" // capwatch: fast ∧ slow burn ≥ 1
	TriggerThrottleEdge = "throttle_edge"        // capsule: death-rate throttle denying divisions
	TriggerShedStorm    = "shed_storm"           // capserve: queue-full 503 rate over threshold
	TriggerBreakerTrip  = "breaker_trip"         // capcluster: a backend's breaker opened
	TriggerSlowEjection = "slow_ejection"        // capcluster: latency-based backend ejection
)

// Config parameterises a Recorder. Dir and Runtime are required;
// Server, Router and Fault widen both the trigger set and the bundle.
type Config struct {
	// Source names this recorder's bundles (manifest + merged
	// /debug/incident responses). Default: "capscope".
	Source string

	// Dir is the bundle directory. Created if absent; existing bundles
	// are indexed so the ring survives restarts. Required.
	Dir string

	// MaxBundles bounds the on-disk ring: when a capture would exceed
	// it, the oldest bundles are pruned. Default: DefaultMaxBundles.
	MaxBundles int

	// Cooldown is the per-trigger debounce: after a trigger fires, it
	// cannot fire again for this long. Default: DefaultCooldown.
	Cooldown time.Duration

	// ProfileDuration bounds the CPU profile burst inside a capture.
	// 0 means DefaultProfileDuration; negative disables the CPU
	// profile (tests, and any process that cannot spare the burst).
	ProfileDuration time.Duration

	// TraceEvents caps the captrace events snapshotted into a bundle.
	// Default: DefaultTraceEvents.
	TraceEvents int

	// ShedStormPerSec is the queue-full 503 rate (per second, measured
	// tick-over-tick) at or above which the shed_storm trigger fires.
	// Default: DefaultShedStormPerSec. Negative disables the trigger.
	ShedStormPerSec float64

	// Runtime is the capsule runtime: throttle-edge trigger plus the
	// default Tracer. Required.
	Runtime *capsule.Runtime

	// Server, when set, arms the shed_storm trigger.
	Server *capserve.Server

	// Router, when set, arms breaker_trip / slow_ejection and adds the
	// per-backend table to every bundle.
	Router *capcluster.Router

	// Tracer overrides the ring snapshotted into bundles. Default:
	// Runtime.Tracer().
	Tracer *captrace.Tracer

	// Fault, when set, records the live rule set in every bundle — an
	// incident caused by a staged storm says so in the artifact.
	Fault *capfault.Injector
}

// Validate reports whether cfg can build a Recorder.
func (cfg Config) Validate() error {
	if cfg.Dir == "" {
		return fmt.Errorf("capscope: Config.Dir is required")
	}
	if cfg.Runtime == nil {
		return fmt.Errorf("capscope: Config.Runtime is required")
	}
	if cfg.MaxBundles < 0 {
		return fmt.Errorf("capscope: MaxBundles must be >= 0 (0 means %d), got %d", DefaultMaxBundles, cfg.MaxBundles)
	}
	if cfg.Cooldown < 0 {
		return fmt.Errorf("capscope: Cooldown must be >= 0 (0 means %v), got %v", DefaultCooldown, cfg.Cooldown)
	}
	return nil
}

// Recorder owns the trigger loop and the on-disk bundle ring. Build
// with New, attach to a sampler with Arm, detach with Close.
type Recorder struct {
	cfg      Config
	source   string
	dir      string
	max      int
	cooldown time.Duration
	profDur  time.Duration
	traceN   int
	shedRate float64
	tracer   *captrace.Tracer

	sampler *capwatch.Sampler

	// now is the clock, swappable in tests so cooldown semantics are
	// provable without sleeping.
	now func() time.Time

	// Trigger state. Only the observe goroutine (the sampler tick)
	// touches it, so it needs no lock.
	primed       bool
	lastObserve  time.Time
	lastFire     map[string]time.Time
	prevThrottle uint64
	prevSheds    uint64
	prevBackends []capcluster.BackendCounters
	curBackends  []capcluster.BackendCounters

	// mu serializes disk mutation: capture-rename + prune vs DELETE.
	mu  sync.Mutex
	seq uint64 // next bundle sequence (monotonic across restarts)

	inflight  atomic.Bool
	incidents atomic.Uint64 // captures completed since process start
	errors    atomic.Uint64 // captures that failed to land

	wg sync.WaitGroup // outstanding capture goroutines
}

// cpuProfMu serializes CPU profiling process-wide: the runtime allows
// one CPU profile at a time, and a router plus its spawned backends'
// recorders share one process.
var cpuProfMu sync.Mutex

// New builds a Recorder: creates Dir, sweeps torn temp dirs from a
// previous crash, indexes surviving bundles (the sequence continues
// past them) and prunes down to MaxBundles.
func New(cfg Config) (*Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Recorder{
		cfg:      cfg,
		source:   cfg.Source,
		dir:      cfg.Dir,
		max:      cfg.MaxBundles,
		cooldown: cfg.Cooldown,
		profDur:  cfg.ProfileDuration,
		traceN:   cfg.TraceEvents,
		shedRate: cfg.ShedStormPerSec,
		tracer:   cfg.Tracer,
		now:      time.Now,
		lastFire: make(map[string]time.Time),
	}
	if r.source == "" {
		r.source = "capscope"
	}
	if r.max == 0 {
		r.max = DefaultMaxBundles
	}
	if r.cooldown == 0 {
		r.cooldown = DefaultCooldown
	}
	if r.profDur == 0 {
		r.profDur = DefaultProfileDuration
	}
	if r.traceN == 0 {
		r.traceN = DefaultTraceEvents
	}
	if r.shedRate == 0 {
		r.shedRate = DefaultShedStormPerSec
	}
	if r.tracer == nil {
		r.tracer = cfg.Runtime.Tracer()
	}
	if cfg.Router != nil {
		n := len(cfg.Router.BackendNames())
		r.prevBackends = make([]capcluster.BackendCounters, n)
		r.curBackends = make([]capcluster.BackendCounters, n)
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, fmt.Errorf("capscope: creating bundle dir: %w", err)
	}
	sweepTemp(r.dir)
	for _, m := range LoadManifests(r.dir) {
		if m.Seq >= r.seq {
			r.seq = m.Seq + 1
		}
	}
	r.mu.Lock()
	r.pruneLocked()
	r.mu.Unlock()
	return r, nil
}

// Source returns the recorder's bundle label.
func (r *Recorder) Source() string { return r.source }

// Dir returns the bundle directory.
func (r *Recorder) Dir() string { return r.dir }

// Incidents returns the number of bundles captured since process
// start (survivors from earlier runs are listed but not counted here —
// this is the counter behind capscope_incidents_total).
func (r *Recorder) Incidents() uint64 { return r.incidents.Load() }

// Arm attaches the recorder to a sampler: the trigger loop runs after
// every published snapshot, and the sampler's reports carry the
// incident count. Call Close before arming on another sampler.
func (r *Recorder) Arm(s *capwatch.Sampler) {
	r.sampler = s
	s.SetIncidents(r.Incidents)
	s.OnSample(r.observe)
}

// Close detaches the recorder from its sampler and waits for any
// in-flight capture to land. The bundle directory stays readable.
func (r *Recorder) Close() {
	if s := r.sampler; s != nil {
		s.OnSample(nil)
	}
	r.wg.Wait()
}

// observe is the trigger loop, run once per sampler tick. The first
// tick only primes the previous-counter state: cumulative counters
// predate the recorder, and arming must not fire on history.
func (r *Recorder) observe() {
	now := r.now()
	stats := r.cfg.Runtime.Stats()
	var sheds uint64
	if r.cfg.Server != nil {
		sheds = r.cfg.Server.ShedCount()
	}
	if r.cfg.Router != nil {
		r.cfg.Router.ReadBackendCounters(r.curBackends)
	}
	if !r.primed {
		r.primed = true
		r.lastObserve = now
		r.prevThrottle = stats.ThrottleDenies
		r.prevSheds = sheds
		copy(r.prevBackends, r.curBackends)
		return
	}
	elapsed := now.Sub(r.lastObserve).Seconds()

	trigger, reason := "", ""
	var slo capwatch.SLOReport
	if r.sampler != nil {
		slo = r.sampler.SLO()
	}
	switch {
	case slo.Exhausted:
		trigger = TriggerSLOExhausted
		reason = fmt.Sprintf("error budget exhausted: fast burn %.2f and slow burn %.2f both >= 1 (availability %.4f, p99 %.1fms vs target %.0fms)",
			slo.Fast.Burn, slo.Slow.Burn, slo.Fast.Availability, slo.Fast.P99MS, slo.TargetP99MS)
	case r.brokeBackend() >= 0:
		i := r.brokeBackend()
		trigger = TriggerBreakerTrip
		reason = fmt.Sprintf("backend %s circuit breaker opened", r.backendName(i))
	case r.ejectedBackend() >= 0:
		i := r.ejectedBackend()
		trigger = TriggerSlowEjection
		d := r.curBackends[i].Ejections - r.prevBackends[i].Ejections
		reason = fmt.Sprintf("backend %s ejected as slow (%d ejection(s) this tick)", r.backendName(i), d)
	case r.shedRate >= 0 && elapsed > 0 && float64(sheds-r.prevSheds)/elapsed >= r.shedRate:
		trigger = TriggerShedStorm
		reason = fmt.Sprintf("queue-full 503s at %.1f/s >= %.1f/s threshold", float64(sheds-r.prevSheds)/elapsed, r.shedRate)
	case stats.ThrottleDenies > r.prevThrottle:
		trigger = TriggerThrottleEdge
		reason = fmt.Sprintf("death-rate throttle denied %d division(s) this tick (%d deaths total)",
			stats.ThrottleDenies-r.prevThrottle, stats.Deaths)
	}

	if trigger != "" {
		if last, ok := r.lastFire[trigger]; !ok || now.Sub(last) >= r.cooldown {
			if r.inflight.CompareAndSwap(false, true) {
				r.lastFire[trigger] = now
				r.wg.Add(1)
				go func() {
					defer r.wg.Done()
					defer r.inflight.Store(false)
					r.capture(trigger, reason, slo, now)
				}()
			}
		}
	}

	r.lastObserve = now
	r.prevThrottle = stats.ThrottleDenies
	r.prevSheds = sheds
	copy(r.prevBackends, r.curBackends)
}

// brokeBackend returns the index of a backend whose breaker opened
// this tick, or -1.
func (r *Recorder) brokeBackend() int {
	for i := range r.curBackends {
		if r.curBackends[i].Broken && !r.prevBackends[i].Broken {
			return i
		}
	}
	return -1
}

// ejectedBackend returns the index of a backend ejected as slow this
// tick, or -1.
func (r *Recorder) ejectedBackend() int {
	for i := range r.curBackends {
		if r.curBackends[i].Ejections > r.prevBackends[i].Ejections {
			return i
		}
	}
	return -1
}

func (r *Recorder) backendName(i int) string {
	if r.cfg.Router == nil {
		return fmt.Sprintf("#%d", i)
	}
	names := r.cfg.Router.BackendNames()
	if i < 0 || i >= len(names) {
		return fmt.Sprintf("#%d", i)
	}
	return names[i]
}

// WriteMetrics emits the capscope_* exposition; wire it into a
// server's /metrics with AddMetrics. capscope_incidents_total is the
// gauge captop's inc column rides on.
func (r *Recorder) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP capscope_incidents_total Incident bundles captured since process start.\n# TYPE capscope_incidents_total counter\ncapscope_incidents_total %d\n", r.incidents.Load())
	fmt.Fprintf(w, "# HELP capscope_capture_errors_total Incident captures that failed to land on disk.\n# TYPE capscope_capture_errors_total counter\ncapscope_capture_errors_total %d\n", r.errors.Load())
	fmt.Fprintf(w, "# HELP capscope_bundles Incident bundles resident in the on-disk ring.\n# TYPE capscope_bundles gauge\ncapscope_bundles %d\n", len(LoadManifests(r.dir)))
}

// pruneLocked removes the oldest bundles past MaxBundles. Callers
// hold r.mu.
func (r *Recorder) pruneLocked() {
	ms := LoadManifests(r.dir)
	for len(ms) > r.max {
		os.RemoveAll(filepath.Join(r.dir, ms[0].ID))
		ms = ms[1:]
	}
}

// sweepTemp removes half-written capture dirs left by a crash.
func sweepTemp(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}
