// Package capscope is the incident-capture leg of the observability
// story — a black-box flight recorder for the fleet. The other three
// legs are ephemeral by design: /metrics is a point-in-time scrape,
// captrace rings rotate, capwatch windows slide. By the time an
// operator runs capscope top, the interesting 30 seconds are usually
// gone. capscope arms *triggers* on the signals those layers already compute
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
// pointer load, one SLO evaluation and a comparison of the sampler's two
// newest snapshots per tick — the capwatch hook it rides on is
// copy-on-write, and the sampler is the one reader of the tiers'
// counters: the recorder reads none itself (McKenney's split: writers
// never know the reader exists). TestArmedTickWithoutTriggerIsFree holds the
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

	"repro/internal/capfault"
	"repro/internal/captrace"
	"repro/internal/capwatch"
	"repro/internal/promtext"
)

// Defaults.
const (
	DefaultMaxBundles      = 8
	DefaultCooldown        = time.Minute
	DefaultProfileDuration = 250 * time.Millisecond
)

// TraceEvents caps the captrace events snapshotted into a bundle.
const TraceEvents = 4096

// ShedStormPerSec is the queue-full 503 rate (per second, measured
// between the sampler's two newest snapshots) at or above which the
// shed_storm trigger fires.
const ShedStormPerSec = 5.0

// Trigger names, recorded in every bundle manifest. One per anomaly
// class across the three tiers.
const (
	TriggerSLOExhausted = "slo_budget_exhausted" // capwatch: fast ∧ slow burn ≥ 1
	TriggerThrottleEdge = "throttle_edge"        // capsule: death-rate throttle denying divisions
	TriggerShedStorm    = "shed_storm"           // capserve: queue-full 503 rate over threshold
	TriggerBreakerTrip  = "breaker_trip"         // capcluster: a backend's breaker opened
	TriggerSlowEjection = "slow_ejection"        // capcluster: latency-based backend ejection
)

// Config parameterises a Recorder. Dir is required. The trigger set and
// the bundle widen with the tiers of the sampler it is armed on: a
// server's sheds, a router's breakers, ejections and per-backend table.
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

	// Tracer is the ring snapshotted into bundles — the member's
	// runtime's. Nil: bundles carry an empty trace.
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
	tracer   *captrace.Tracer

	sampler *capwatch.Sampler

	// now is the clock, swappable in tests so cooldown semantics are
	// provable without sleeping.
	now func() time.Time

	// lastFire is the cooldown state. Only the observe goroutine (the
	// sampler tick) touches it, so it needs no lock.
	lastFire map[string]time.Time

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

// observe is the trigger loop, run once per sampler tick. Triggers read
// only the sampler: its SLO verdict and what moved between its two
// newest snapshots, so counters that predate arming never fire.
func (r *Recorder) observe() {
	now := r.now()
	trigger, reason := "", ""
	slo := r.sampler.SLO()
	if slo.Exhausted {
		trigger = TriggerSLOExhausted
		reason = fmt.Sprintf("error budget exhausted: fast burn %.2f and slow burn %.2f both >= 1 (availability %.4f, p99 %.1fms vs target %.0fms)",
			slo.Fast.Burn, slo.Slow.Burn, slo.Fast.Availability, slo.Fast.P99MS, slo.TargetP99MS)
	} else {
		r.sampler.Latest(func(prev, cur *capwatch.Sample, sec float64) {
			trigger, reason = judge(prev, cur, sec)
		})
	}
	if trigger == "" {
		return
	}
	if last, ok := r.lastFire[trigger]; ok && now.Sub(last) < r.cooldown {
		return
	}
	if r.inflight.CompareAndSwap(false, true) {
		r.lastFire[trigger] = now
		r.wg.Add(1)
		go r.capture(trigger, reason, slo, now)
	}
}

// judge names the counter trigger that fired between two consecutive
// snapshots sec seconds apart, and why; "" when none did. Breakers and
// ejections outrank sheds, which outrank the throttle.
func judge(prev, cur *capwatch.Sample, sec float64) (trigger, reason string) {
	for i := range cur.Backends {
		if b := &cur.Backends[i]; b.Broken && !prev.Backends[i].Broken {
			return TriggerBreakerTrip, fmt.Sprintf("backend %s circuit breaker opened", b.Name)
		}
	}
	for i := range cur.Backends {
		if d := cur.Backends[i].Ejections - prev.Backends[i].Ejections; d > 0 {
			return TriggerSlowEjection, fmt.Sprintf("backend %s ejected as slow (%d ejection(s) this tick)", cur.Backends[i].Name, d)
		}
	}
	if rate := float64(cur.Sheds-prev.Sheds) / sec; rate >= ShedStormPerSec {
		return TriggerShedStorm, fmt.Sprintf("queue-full 503s at %.1f/s >= %.1f/s threshold", rate, ShedStormPerSec)
	}
	if d := cur.Capsule.ThrottleDenies - prev.Capsule.ThrottleDenies; d > 0 {
		return TriggerThrottleEdge, fmt.Sprintf("death-rate throttle denied %d division(s) this tick (%d deaths total)", d, cur.Capsule.Deaths)
	}
	return "", ""
}

// WriteMetrics emits the capscope_* exposition; wire it into a
// server's /metrics with AddMetrics. capscope_incidents_total is the
// gauge capscope top's INC column rides on.
func (r *Recorder) WriteMetrics(w io.Writer) {
	p := promtext.NewWriter(w)
	p.Counter("capscope_incidents_total", "Incident bundles captured since process start.", r.incidents.Load())
	p.Counter("capscope_capture_errors_total", "Incident captures that failed to land on disk.", r.errors.Load())
	p.Gauge("capscope_bundles", "Incident bundles resident in the on-disk ring.", float64(len(LoadManifests(r.dir))))
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
