package capwatch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capfault"
	"repro/internal/promtext"
)

// The incident recorder: a black-box flight recorder riding the
// sampler. /metrics is a point-in-time scrape, captrace rings rotate and
// the ring's windows slide, so by the time an operator runs capscope
// top the interesting 30 seconds are usually gone. A sampler built with
// an IncidentDir evaluates *triggers* on the signals it already holds
// after every published snapshot and, the moment one fires, captures a
// self-contained incident bundle — the rollup (burn rates, p99s), a
// captrace ring snapshot, a short CPU profile burst, heap profile,
// goroutine dump, build identity, the live capfault rule set and (on a
// router) the per-backend credit/breaker table — into a bounded on-disk
// ring of bundles that survives process restarts and graceful drains.
//
// Cost: without an IncidentDir the tick pays one nil check. With one, a
// quiet tick pays one SLO evaluation and a comparison of the ring's two
// newest snapshots — the tiers' counters are still read once, by
// collect, and by nothing else (McKenney's split: writers never know
// the reader exists). TestArmedTickWithoutTriggerIsFree holds the armed
// tick to no counter moved, no capture and no file written, and
// TestArmedPlanesBesideDivideStorm runs it beside live probes under
// -race.
//
// Debounce: triggers are evaluated once per tick and each carries its
// own cooldown — a sustained burn yields one bundle per cooldown, not
// one per tick, and a cooling trigger never masks one ranked below it.
// Captures run asynchronously (the CPU profile burst takes
// DefaultProfileDuration); an in-flight capture causes concurrent
// firings to be skipped, never queued.

// Incident defaults.
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
// class across the three tiers, highest rank first.
const (
	TriggerSLOExhausted = "slo_budget_exhausted" // capwatch: fast ∧ slow burn ≥ 1
	TriggerBreakerTrip  = "breaker_trip"         // capcluster: a backend's breaker opened
	TriggerSlowEjection = "slow_ejection"        // capcluster: latency-based backend ejection
	TriggerShedStorm    = "shed_storm"           // capserve: queue-full 503 rate over threshold
	TriggerThrottleEdge = "throttle_edge"        // capsule: death-rate throttle denying divisions
)

// recorder is a sampler's incident leg and its on-disk bundle ring,
// present only when Config.IncidentDir is set.
type recorder struct {
	source   string
	dir      string
	max      int
	cooldown time.Duration
	profDur  time.Duration // DefaultProfileDuration; in-package tests shorten or disable (< 0) it
	fault    *capfault.Injector

	// now is the clock, swappable in tests so cooldown semantics are
	// provable without sleeping.
	now func() time.Time

	// lastFire is the per-trigger cooldown state. Only the tick
	// goroutine touches it, so it needs no lock.
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

// newRecorder creates cfg.IncidentDir, sweeps torn temp dirs from a
// previous crash, indexes surviving bundles (the sequence continues
// past them) and prunes down to MaxBundles.
func newRecorder(source string, cfg Config) (*recorder, error) {
	r := &recorder{
		source:   source,
		dir:      cfg.IncidentDir,
		max:      cfg.MaxBundles,
		cooldown: cfg.Cooldown,
		profDur:  DefaultProfileDuration,
		fault:    cfg.Fault,
		now:      time.Now,
		lastFire: make(map[string]time.Time),
	}
	if r.max == 0 {
		r.max = DefaultMaxBundles
	}
	if r.cooldown == 0 {
		r.cooldown = DefaultCooldown
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, fmt.Errorf("capwatch: creating bundle dir: %w", err)
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

// IncidentDir returns the bundle directory, "" when no recorder is
// armed.
func (s *Sampler) IncidentDir() string {
	if s.rec == nil {
		return ""
	}
	return s.rec.dir
}

// observe is the trigger loop, run by SampleNow after each published
// snapshot. Triggers read only the ring: the SLO verdict and what moved
// between the two newest snapshots, so counters that predate the
// sampler never fire. The highest-ranked trigger that is not cooling
// down fires.
func (s *Sampler) observe() {
	r := s.rec
	now := r.now()
	cooling := func(trigger string) bool {
		last, ok := r.lastFire[trigger]
		return ok && now.Sub(last) < r.cooldown
	}
	trigger, reason := "", ""
	slo := s.evalSLO()
	if slo.Exhausted && !cooling(TriggerSLOExhausted) {
		trigger = TriggerSLOExhausted
		reason = fmt.Sprintf("error budget exhausted: fast burn %.2f and slow burn %.2f both >= 1 (availability %.4f, p99 %.1fms vs target %.0fms)",
			slo.Fast.Burn, slo.Slow.Burn, slo.Fast.Availability, slo.Fast.P99MS, slo.TargetP99MS)
	} else {
		s.mu.RLock()
		if c := s.cursor.Load(); c >= 2 {
			prev, cur := &s.ring[(c-2)&s.mask], &s.ring[(c-1)&s.mask]
			sec, _ := s.span(prev, cur)
			trigger, reason = judge(prev, cur, sec, cooling)
		}
		s.mu.RUnlock()
	}
	if trigger == "" {
		return
	}
	if r.inflight.CompareAndSwap(false, true) {
		r.lastFire[trigger] = now
		r.wg.Add(1)
		go s.capture(trigger, reason, slo, now)
	}
}

// judge names the highest-ranked counter trigger that fired between two
// consecutive snapshots sec seconds apart and is not cooling, and why;
// "" when none did. Breakers and ejections outrank sheds, which outrank
// the throttle.
func judge(prev, cur *Sample, sec float64, cooling func(trigger string) bool) (trigger, reason string) {
	if !cooling(TriggerBreakerTrip) {
		for i := range cur.Backends {
			if b := &cur.Backends[i]; b.Broken && !prev.Backends[i].Broken {
				return TriggerBreakerTrip, fmt.Sprintf("backend %s circuit breaker opened", b.Name)
			}
		}
	}
	if !cooling(TriggerSlowEjection) {
		for i := range cur.Backends {
			if d := cur.Backends[i].Ejections - prev.Backends[i].Ejections; d > 0 {
				return TriggerSlowEjection, fmt.Sprintf("backend %s ejected as slow (%d ejection(s) this tick)", cur.Backends[i].Name, d)
			}
		}
	}
	if rate := float64(cur.Sheds-prev.Sheds) / sec; rate >= ShedStormPerSec && !cooling(TriggerShedStorm) {
		return TriggerShedStorm, fmt.Sprintf("queue-full 503s at %.1f/s >= %.1f/s threshold", rate, ShedStormPerSec)
	}
	if d := cur.Capsule.ThrottleDenies - prev.Capsule.ThrottleDenies; d > 0 && !cooling(TriggerThrottleEdge) {
		return TriggerThrottleEdge, fmt.Sprintf("death-rate throttle denied %d division(s) this tick (%d deaths total)", d, cur.Capsule.Deaths)
	}
	return "", ""
}

// writeMetrics emits the capscope_* exposition, the recorder's counters
// behind capscope top's INC column.
func (r *recorder) writeMetrics(p promtext.Writer) {
	p.Counter("capscope_incidents_total", "Incident bundles captured since process start.", r.incidents.Load())
	p.Counter("capscope_capture_errors_total", "Incident captures that failed to land on disk.", r.errors.Load())
	p.Gauge("capscope_bundles", "Incident bundles resident in the on-disk ring.", float64(len(LoadManifests(r.dir))))
}

// pruneLocked removes the oldest bundles past MaxBundles. Callers
// hold r.mu.
func (r *recorder) pruneLocked() {
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
