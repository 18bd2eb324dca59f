// Package capsule is the native software port of the paper's probe/divide
// protocol: the conditional-division runtime that internal/cpu models at
// cycle level, re-implemented on real goroutines so component programs can
// run at hardware speed.
//
// The mapping from the SOMT hardware to this runtime:
//
//   - hardware contexts     → a bounded pool of context tokens (default
//     GOMAXPROCS), so a probe succeeds only when a "hardware context" is
//     free — exactly the paper's resource-aware division condition. Each
//     token owns a persistent goroutine; a granted division hands work
//     to it through a spin-then-park slot (one store + one CAS while the
//     worker spins, a mailbox send once it parked), not a fresh
//     goroutine spawn;
//   - nthr (probe+divide)   → a Domain's Probe/Spawn (a Group's, or
//     Sequential's), or the Runtime's fused Divide/TryDivide.
//     The paper's point that the SOMT answers nthr "in a few cycles" is
//     preserved in software: the whole probe path is a handful of atomic
//     loads and one CAS on a Treiber stack of context ids — no mutex,
//     no allocation, no clock read — and the pool is asked first, so a
//     refusal from an empty pool is one load of the stack's head word
//     and one count on a line the offering request owns: offering
//     parallelism at every division point stays cheap even when almost
//     every offer is refused;
//   - kthr (worker death)   → token release when the worker function
//     returns, recorded in the death-rate window;
//   - division throttling   → a rolling window of recent worker deaths;
//     when deaths in the window reach half the context count, further
//     probes are denied (Section 3.1's death-rate throttle). The death
//     that completes such a burst publishes a "throttled until" deadline
//     word; a probe with a token in reach loads that word and reads the
//     clock only while it is set;
//   - LIFO context stack    → freed tokens are reused most-recently-dead
//     first, keeping the working set on warm stacks/caches;
//   - fast lock table       → a striped lock table keyed by arbitrary
//     64-bit addresses (Lock/Unlock), mirroring mlock/munlock.
//
// The protocol is the paper's: a component *offers* parallelism at each
// division point; the runtime accepts only when resources are free, and on
// refusal the caller runs the same work inline (the sequential fallback
// path the CapC compiler emits after a failed nthr). Programs written this
// way never oversubscribe and never block waiting for a worker slot.
package capsule

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/captrace"
)

// Config parameterises a Runtime. The zero value is usable: every field
// has a documented default applied by New. Negative values are never
// meaningful and are rejected by Validate (New panics on them;
// NewValidated returns the error).
type Config struct {
	// Contexts is the context-token pool size — the software analogue of
	// the SOMT's hardware context count. Default: runtime.GOMAXPROCS(0).
	Contexts int

	// Throttle enables death-rate division throttling. Defaulted on by
	// NewDefault; New leaves the zero value (off) untouched so ablations
	// can measure the unthrottled runtime.
	Throttle bool

	// DeathWindow is the rolling window over which worker deaths are
	// counted for the throttle (the software port of the paper's 128-cycle
	// window). Default: 100µs. max(1, Contexts/2) deaths inside it — the
	// paper's threshold — trip the throttle.
	DeathWindow time.Duration

	// Tracer, when non-nil, receives lifecycle events (probe outcomes,
	// handoffs, deaths, throttle transitions) from the hot path. Probe
	// and the Runtime-level Divide/TryDivide stay untraced either way;
	// per-request events flow only through NewGroupTraced groups with a
	// nonzero trace ID, and throttle edges are detected on the
	// death path, admission peeks and those traced probes that get past
	// the pool test — so an armed-but-unsampled probe runs the same
	// instructions as tracing off (TestUntracedStaysSilent: it records
	// nothing; what tracing costs a request end to end is the benchmark's
	// trace.overhead_ratio row), and a probe refused by an empty pool
	// looks at no throttle state at all, traced or not. nil (the default)
	// disables tracing entirely — every instrumentation point is one
	// predictable branch.
	Tracer *captrace.Tracer
}

// Defaults returns the standard configuration: GOMAXPROCS contexts,
// throttling on, the paper-derived window and threshold.
func Defaults() Config {
	return Config{
		Contexts:    runtime.GOMAXPROCS(0),
		Throttle:    true,
		DeathWindow: 100 * time.Microsecond,
	}
}

// maxContexts bounds Config.Contexts. New allocates a persistent worker
// goroutine, a mailbox channel and a Context per context up front, and
// the token stack stores id+1 in an int32: a count far beyond any
// machine's hardware threads is a typo that would exhaust memory at
// startup, so Validate refuses it as a configuration error instead.
const maxContexts = 1 << 14

// lockStripes is the lock-table size, a power of two: 256 entries,
// mirroring the bounded fast lock table.
const lockStripes = 256

// Validate reports whether every field of c is meaningful. Zero fields
// are valid — they take the documented defaults — but negative counts
// or windows have no sensible reading and were previously absorbed
// silently into the defaults; now they are errors.
func (c Config) Validate() error {
	if c.Contexts < 0 || c.Contexts > maxContexts {
		return fmt.Errorf("capsule: Contexts must be in [0, %d] (0 means GOMAXPROCS), got %d", maxContexts, c.Contexts)
	}
	if c.DeathWindow < 0 {
		return fmt.Errorf("capsule: DeathWindow must be >= 0 (0 means 100µs default), got %v", c.DeathWindow)
	}
	return nil
}

// Stats is a snapshot of a Runtime's counters. All counts are cumulative
// since New (or the last ResetStats). Probes is not counted separately:
// it is the sum of the three outcome counters, so Probes == Granted +
// NoCtxDenies + ThrottleDenies in every snapshot and every Delta.
type Stats struct {
	Probes         uint64 `json:"probes"`          // division probes (nthr attempts)
	Granted        uint64 `json:"granted"`         // probes that reserved a context token
	NoCtxDenies    uint64 `json:"no_ctx_denies"`   // probes refused because the pool was empty
	ThrottleDenies uint64 `json:"throttle_denies"` // probes refused by the death-rate throttle
	InlineRuns     uint64 `json:"inline_runs"`     // Runtime.Divide only: refused Divides that ran the work inline
	Deaths         uint64 `json:"deaths"`          // worker terminations (kthr)
	TotalWorkers   uint64 `json:"total_workers"`   // workers ever spawned
	PeakWorkers    int    `json:"peak_workers"`    // maximum simultaneously live workers
	LockAcquires   uint64 `json:"lock_acquires"`   // Locks through every domain; a Group's elided ones arrive at its Join
}

// Delta returns the counters accumulated since prev, an earlier snapshot
// of the same Runtime: s - prev field by field. PeakWorkers is a
// high-water mark, not a cumulative count, so the later snapshot's value
// carries through unchanged. Snapshot-then-delta is how a shared runtime
// is observed without ResetStats (which would clobber concurrent
// observers): take Stats() before, Stats() after, and Delta the two.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Probes:         s.Probes - prev.Probes,
		Granted:        s.Granted - prev.Granted,
		NoCtxDenies:    s.NoCtxDenies - prev.NoCtxDenies,
		ThrottleDenies: s.ThrottleDenies - prev.ThrottleDenies,
		InlineRuns:     s.InlineRuns - prev.InlineRuns,
		Deaths:         s.Deaths - prev.Deaths,
		TotalWorkers:   s.TotalWorkers - prev.TotalWorkers,
		PeakWorkers:    s.PeakWorkers,
		LockAcquires:   s.LockAcquires - prev.LockAcquires,
	}
}

// GrantRate is the fraction of probes that succeeded (Table 3's
// "% divisions allowed"). It doubles as the steal-free work balance:
// CAPSULE distributes work purely by conditional division — there is no
// work stealing, and a refused probe always leaves the offered work with
// the offering worker (the caller's own path after a refused Probe) — so
// the grant rate is exactly the fraction of division offers whose work
// moved to a fresh worker.
func (s Stats) GrantRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Granted) / float64(s.Probes)
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"probes=%d granted=%d (%.0f%%) denies[noctx=%d throttle=%d] inline=%d deaths=%d workers[total=%d peak=%d] locks=%d",
		s.Probes, s.Granted, 100*s.GrantRate(), s.NoCtxDenies, s.ThrottleDenies,
		s.InlineRuns, s.Deaths, s.TotalWorkers, s.PeakWorkers, s.LockAcquires)
}

// A Context is a reserved context token returned by a successful Probe.
// It must be consumed by exactly one Group.Spawn or Release.
type Context struct {
	rt *Runtime
	id int
}

// ID is the hardware-context index this token reserves (stable across the
// runtime's lifetime; LIFO reuse means recently-died ids recur first).
func (c *Context) ID() int { return c.id }

// Runtime is the machine the Domains run on: a context pool, a death
// window, a lock table and a join group. A Runtime is safe for concurrent
// use by any number of workers. Probe, TryDivide refusal and Release are
// lock-free and allocation-free; a granted spawn is a spin-then-park
// handoff to the token's persistent worker (slot store + CAS on the fast
// path, mailbox send to a parked worker). A Runtime that should release
// its worker goroutines is shut down with Close; one that lives as long
// as the process (the common case) need not bother.
type Runtime struct {
	cfg Config

	pool tokenStack // lock-free LIFO of free context ids
	ctxs []Context  // preallocated tokens, one per id: Probe allocates nothing
	ring deathRing  // death timestamps, touched by the death path only

	// throttleUntil is the throttle as probes see it: 0 while closed,
	// else the clock value up to which probes are refused — the k-th
	// most recent death plus DeathWindow, published by the death that
	// made it so. A probe that finds it expired swaps it back to 0, so
	// the clock is read only while a window is (or may still be) open.
	throttleUntil atomic.Int64

	workers   []chan job    // per-context park mailbox (the handoff slow path)
	wstate    []workerState // per-context spin-then-park handoff slot
	workerWG  sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once
	closedCh  chan struct{}

	// stats is what the runtime's own entry points and every joined
	// Group have counted; a live Group's offers are still on its own line.
	stats statHot

	// Tracing (nil tracer = off). ctxTrace[id] is the trace ID of the
	// request whose division currently occupies context id, written by
	// the spawner before the handoff and read by the worker at death —
	// plain memory, ordered by the same handoff edge that publishes the
	// job itself. throttleOpen mirrors the last observed throttle state
	// so transitions (not levels) become KThrottleOpen/Close events.
	tracer       *captrace.Tracer
	ctxTrace     []uint64
	throttleOpen atomic.Bool

	live atomic.Int64
	peak atomic.Int64

	wg sync.WaitGroup

	stripes  []stripe
	lockMask uint64

	// now is the monotonic clock (nanoseconds since New), injectable by
	// tests to drive the death window deterministically.
	now func() int64
}

// New builds a Runtime from cfg, applying defaults for zero fields. It
// panics if cfg fails Validate; use NewValidated to get the error
// instead.
func New(cfg Config) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Contexts <= 0 {
		cfg.Contexts = runtime.GOMAXPROCS(0)
	}
	if cfg.DeathWindow <= 0 {
		cfg.DeathWindow = 100 * time.Microsecond
	}
	rt := &Runtime{
		cfg:      cfg,
		workers:  make([]chan job, cfg.Contexts),
		wstate:   make([]workerState, cfg.Contexts),
		closedCh: make(chan struct{}),
		stripes:  make([]stripe, lockStripes),
		lockMask: lockStripes - 1,
	}
	// Since on a Time that carries a monotonic reading is one monotonic
	// clock read; Now would read the wall clock as well.
	epoch := time.Now()
	rt.now = func() int64 { return int64(time.Since(epoch)) }
	rt.tracer = cfg.Tracer
	rt.pool.init(cfg.Contexts)
	rt.ring.init(max(1, cfg.Contexts/2))
	rt.ctxs = make([]Context, cfg.Contexts)
	rt.ctxTrace = make([]uint64, cfg.Contexts)
	rt.workerWG.Add(cfg.Contexts)
	for i := range rt.ctxs {
		rt.ctxs[i] = Context{rt: rt, id: i}
		rt.workers[i] = make(chan job, 1)
		go rt.workerLoop(i)
	}
	return rt
}

// NewValidated is New for configurations built from external input (flags,
// requests): it returns cfg's validation error instead of panicking.
func NewValidated(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// NewDefault is New(Defaults()).
func NewDefault() *Runtime { return New(Defaults()) }

// Contexts returns the context-pool size.
func (rt *Runtime) Contexts() int { return rt.cfg.Contexts }

// FreeContexts returns the number of currently unreserved context tokens.
// It is a point-in-time observation, not a reservation — a caller that
// needs the token must Probe — and it does not count as a probe, so
// admission-style peeks (is any parallelism even available?) don't
// distort the division grant rate. It is one atomic load.
func (rt *Runtime) FreeContexts() int { return rt.pool.free() }

// CanDivide reports whether a probe made now would succeed: the runtime
// is open, a context token is free AND the death-rate throttle is
// quiescent. Like FreeContexts it is a non-counting peek, so admission
// checks that use it leave the grant rate to real offers — and unlike
// FreeContexts it agrees with Probe's full condition, so a caller that
// degrades on !CanDivide won't pour doomed offers into a throttled
// runtime. It is a few atomic loads: cheap enough for every request.
func (rt *Runtime) CanDivide() bool {
	if rt.closed.Load() {
		return false
	}
	open := rt.throttled()
	rt.traceThrottleEdge(open)
	if open {
		return false
	}
	return rt.pool.free() > 0
}

// throttled is Probe's death-rate condition: at least max(1, Contexts/2)
// deaths inside the trailing DeathWindow. The death path keeps that
// answer in throttleUntil, so a quiescent runtime answers with one atomic
// load and no clock read — reading the clock costs more than the pool CAS
// itself. The first caller to find the deadline passed closes it again;
// losing that swap to a death that just raised it lets this one probe
// through as the death lands, the same benign race deathRing documents.
func (rt *Runtime) throttled() bool {
	until := rt.throttleUntil.Load()
	if until == 0 {
		return false
	}
	if rt.now() <= until {
		return true
	}
	rt.throttleUntil.CompareAndSwap(until, 0)
	return false
}

// traceThrottleEdge records an open/close transition of the death-rate
// throttle against the last observed state. It is deliberately kept off
// the untraced probe fast path — an armed-but-unsampled probe pays no
// extra atomic loads for it (the benchmark's trace.overhead_ratio row is
// where one would show) — and is instead driven from the sites that can
// actually witness an edge
// promptly: death recording (deaths are what open the throttle),
// CanDivide admission peeks, and traced probes that reach the throttle
// test (which sample the level anyway). open is the caller's freshly
// computed level.
func (rt *Runtime) traceThrottleEdge(open bool) {
	if rt.tracer == nil || open == rt.throttleOpen.Load() {
		return
	}
	// Transition, not level: exactly one racing observer wins the CAS
	// and records the edge. Trace ID 0 — the throttle is runtime
	// state, not any one request's.
	if rt.throttleOpen.CompareAndSwap(!open, open) {
		kind := captrace.KThrottleClose
		if open {
			kind = captrace.KThrottleOpen
		}
		rt.tracer.Record(kind, 0, 0, 0, 0)
	}
}

// Probe attempts to reserve a context token: the paper's nthr condition.
// It succeeds only when the pool has a free token and the death-rate
// throttle is quiescent. On success the returned Context MUST be handed
// back with Release (a division probes through a Group, whose Spawn
// consumes the token); on failure the caller takes its sequential path.
// Probe never takes a mutex and never allocates (the returned Context is
// the token's preallocated struct).
// It counts on the runtime's own line: the path of TryDivide and the
// price list. Groups count on theirs.
func (rt *Runtime) Probe() (*Context, bool) {
	c, deny := rt.offer(0)
	rt.stats.count(c, deny)
	return c, c != nil
}

// offer is the probe proper, shared by the Runtime's entry points and
// Group's: it decides, reserves and (for a traced request) records, but
// counts nothing — each caller bumps the outcome counters it owns. The
// pool is asked first: an empty pool refuses on that one load, whatever
// the throttle says, so an offer that is out of tokens and throttled is
// a no-ctx refusal. deny is the reason when c is nil.
func (rt *Runtime) offer(tid uint64) (c *Context, deny uint16) {
	if rt.closed.Load() {
		// A closed runtime grants nothing; the pool is (being) drained, so
		// "no context" is the refusal Stats reports.
		return rt.refuse(tid, captrace.DenyClosed)
	}
	if rt.pool.empty() {
		return rt.refuse(tid, captrace.DenyNoCtx)
	}
	open := rt.throttled()
	if tid != 0 {
		rt.traceThrottleEdge(open)
	}
	if open {
		return rt.refuse(tid, captrace.DenyThrottle)
	}
	id, ok := rt.pool.pop()
	if !ok {
		return rt.refuse(tid, captrace.DenyNoCtx) // the last token went between the two looks
	}
	if tid != 0 {
		rt.tracer.Record(captrace.KProbeGranted, tid, 0, 0, uint32(id))
	}
	return &rt.ctxs[id], 0
}

// refuse is offer's refusal return: the reason, traced for a sampled
// request.
func (rt *Runtime) refuse(tid uint64, reason uint16) (*Context, uint16) {
	if tid != 0 {
		rt.tracer.Record(captrace.KProbeDenied, tid, 0, reason, 0)
	}
	return nil, reason
}

// spawnOn consumes a reserved token and hands fn to the token's
// persistent worker. The worker's return is the kthr: the token goes back
// on top of the LIFO stack and the death is recorded for the throttle.
// The hand-off is non-blocking by construction — a slot store + CAS when
// the worker is still spinning after its last job, a buffered channel
// send once it parked; either way no goroutine spawn and no allocation
// beyond fn's own closure (see worker.go). When g is non-nil the worker
// is also counted in g's join, so Group.Join can wait for exactly its own
// workers while Runtime.Join still covers everyone, and its handoff and
// death are traced under g's trace ID. The group's Done fires after the
// token release, so by the time a group join returns its workers' deaths
// are visible in the runtime's stats and pool. The ctxTrace store is
// unconditional so a context last used by a traced request never
// mis-attributes its next, untraced occupant. The store is safely
// ordered: only the token holder writes it, and the worker reads it
// after the handoff edge.
func (rt *Runtime) spawnOn(c *Context, fn func(), g *Group) {
	if c == nil || c.rt != rt {
		panic("capsule: Spawn with foreign or nil context")
	}
	if fn == nil {
		panic("capsule: Spawn with nil fn")
	}
	var tid uint64
	if g != nil {
		tid = g.tid
	}
	rt.ctxTrace[c.id] = tid
	rt.stats.totalWorkers.Add(1)
	live := rt.live.Add(1)
	for {
		p := rt.peak.Load()
		if live <= p || rt.peak.CompareAndSwap(p, live) {
			break
		}
	}
	rt.wg.Add(1)
	if g != nil {
		g.wg.Add(1)
	}
	rt.sendJob(c.id, job{fn: fn, g: g})
}

// Release returns an unused token to the pool without running anything
// (a probe the caller decided not to act on). It does not count as a
// death. Lock-free and allocation-free: one CAS.
func (rt *Runtime) Release(c *Context) {
	if c == nil || c.rt != rt {
		panic("capsule: Release with foreign or nil context")
	}
	rt.pool.push(c.id)
}

// release is the kthr path: the worker died, its context is free again.
// The death is recorded before the token is pushed, so a probe that wins
// the recycled token observes the throttle state its death produced.
func (rt *Runtime) release(id int) {
	rt.live.Add(-1)
	rt.stats.deaths.Add(1)
	if rt.cfg.Throttle {
		// The one clock read of a division's life: the death that makes
		// the k-th most recent one fall inside the window turns it into
		// the deadline probes test against.
		now := rt.now()
		if kth, ok := rt.ring.record(now); ok {
			if until := kth + rt.cfg.DeathWindow.Nanoseconds(); until >= now {
				rt.raiseThrottle(until)
			}
		}
		if rt.tracer != nil {
			// The death path, not the probe path, is where open edges are
			// born, so check here while the deadline line is hot.
			until := rt.throttleUntil.Load()
			rt.traceThrottleEdge(until != 0 && until >= now)
		}
	}
	if tid := rt.ctxTrace[id]; tid != 0 {
		// Read is safe pre-push: the worker still owns the token here, and
		// the spawner's ctxTrace store happened-before the job arrived.
		rt.tracer.Record(captrace.KDeath, tid, 0, 0, uint32(id))
	}
	rt.pool.push(id)
	rt.wg.Done()
}

// raiseThrottle moves the deadline forward to until. Deaths race here
// and their clocks may disagree by a few nanoseconds, so it is a max, not
// a store: a deadline never moves back except to 0 by a probe that saw
// it pass.
func (rt *Runtime) raiseThrottle(until int64) {
	for {
		cur := rt.throttleUntil.Load()
		if cur >= until || rt.throttleUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// TryDivide probes and, on success, spawns fn as a worker and returns
// true. On refusal it does nothing and returns false — the caller's
// `else` branch, for programs (like the paper's LZW) that interleave a
// unit of inline work between probes rather than forfeiting the whole
// range.
func (rt *Runtime) TryDivide(fn func()) bool {
	c, ok := rt.Probe()
	if !ok {
		return false
	}
	rt.spawnOn(c, fn, nil)
	return true
}

// Divide is the fused protocol: probe, and either spawn fn on a fresh
// worker (true) or run it inline to completion on the caller (false).
// Either way fn's work is done or underway when Divide returns, which is
// the CapC `coworker f(...)` statement without an else clause.
func (rt *Runtime) Divide(fn func()) bool {
	if rt.TryDivide(fn) {
		return true
	}
	rt.stats.inlineRuns.Add(1)
	fn()
	return false
}

// Join blocks until every spawned worker has died. Mirrors the CapC
// join(): only the component that owns the group may call it, and it must
// not race with new top-level divisions (divisions *from live workers*
// are fine — the group cannot hit zero while the divider is alive).
func (rt *Runtime) Join() { rt.wg.Wait() }

// lock acquires the table entry for key (mlock) under a Domain's Lock.
// Keys are arbitrary 64-bit addresses; the table is striped, so distinct
// keys may share an entry — coarser, never incorrect, exactly like the
// bounded hardware table. The acquisition is counted on the entry itself,
// under its own mutex: lock costs that mutex and nothing else, and
// callers on different entries share no cache line.
func (rt *Runtime) lock(key uint64) {
	s := rt.stripeFor(key)
	s.mu.Lock()
	s.acquires++
}

// unlock releases the table entry for key (munlock), or gives back one
// extra hold on it that a Group's upgrade took.
func (rt *Runtime) unlock(key uint64) {
	s := rt.stripeFor(key)
	if s.extra != 0 {
		s.extra--
		return
	}
	s.mu.Unlock()
}

// stripeFor is key's lock-table entry.
func (rt *Runtime) stripeFor(key uint64) *stripe { return &rt.stripes[mix(key)&rt.lockMask] }

// stripeHot is one lock-table entry: the mutex, the count of
// acquisitions it has guarded, and the holder's extra holds — further
// keys on this entry that Group.upgrade took with one mutex Lock. Only
// the holder writes either count.
type stripeHot struct {
	mu       sync.Mutex
	acquires uint64
	extra    int
}

// stripe pads stripeHot to whole cache lines, so two requests locking
// neighbouring entries never contend for a line, only for a mutex they
// actually share.
type stripe struct {
	stripeHot
	_ [(cacheLine - unsafe.Sizeof(stripeHot{})%cacheLine) % cacheLine]byte
}

// mix is a 64-bit finaliser (splitmix64) so dense keys spread over
// stripes.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// outcomes is one set of division-outcome counters. There is no probes
// counter: a probe bumps exactly one of granted, noCtxDenies (pool
// observed empty, or runtime closed) and throttleDenies, and Probes is
// derived as their sum. The Runtime has one set and so has every Group.
type outcomes struct {
	granted        atomic.Uint64
	noCtxDenies    atomic.Uint64
	throttleDenies atomic.Uint64
}

// count records the outcome of one offer (see Runtime.offer).
func (o *outcomes) count(c *Context, deny uint16) {
	switch {
	case c != nil:
		o.granted.Add(1)
	case deny == captrace.DenyThrottle:
		o.throttleDenies.Add(1)
	default:
		o.noCtxDenies.Add(1)
	}
}

// foldInto adds to dst whatever o has counted beyond done, and advances
// done to match: each count reaches dst exactly once however many folds
// run, even concurrently.
func (o *outcomes) foldInto(dst, done *outcomes) {
	fold(&dst.granted, &o.granted, &done.granted)
	fold(&dst.noCtxDenies, &o.noCtxDenies, &done.noCtxDenies)
	fold(&dst.throttleDenies, &o.throttleDenies, &done.throttleDenies)
}

func fold(dst, src, done *atomic.Uint64) {
	for {
		d := done.Load()
		n := src.Load() // loaded second: src only grows, so n >= d
		if n == d {
			return
		}
		if done.CompareAndSwap(d, n) {
			dst.Add(n - d)
			return
		}
	}
}

// statHot is the runtime's live counter set.
type statHot struct {
	outcomes
	inlineRuns   atomic.Uint64
	deaths       atomic.Uint64
	totalWorkers atomic.Uint64
	elided       atomic.Uint64 // joined groups' Locks that took no table entry
}

// Stats snapshots the counters. A Group's offers arrive at its Join, so
// a snapshot lags every group still running by what it has counted since
// its last Join; the identity Probes == Granted + NoCtxDenies +
// ThrottleDenies holds regardless. LockAcquires likewise gets a Group's
// elided Locks at its Join; the table's own count is read entry by entry
// under each entry's mutex: Stats waits out a critical section in
// progress, and must not be called by a goroutine that holds a table
// lock.
func (rt *Runtime) Stats() Stats {
	st := &rt.stats
	s := Stats{
		Granted:        st.granted.Load(),
		NoCtxDenies:    st.noCtxDenies.Load(),
		ThrottleDenies: st.throttleDenies.Load(),
		InlineRuns:     st.inlineRuns.Load(),
		Deaths:         st.deaths.Load(),
		TotalWorkers:   st.totalWorkers.Load(),
		PeakWorkers:    int(rt.peak.Load()),
		LockAcquires:   st.elided.Load(),
	}
	s.Probes = s.Granted + s.NoCtxDenies + s.ThrottleDenies
	for i := range rt.stripes {
		e := &rt.stripes[i]
		e.mu.Lock()
		s.LockAcquires += e.acquires
		e.mu.Unlock()
	}
	return s
}

// Tracer returns the tracer this runtime records into (nil when
// tracing is disabled) — the handle the serving tier snapshots for
// /debug/trace.
func (rt *Runtime) Tracer() *captrace.Tracer { return rt.tracer }

// ResetStats zeroes the counters (the context pool and death window are
// left alone: resource state is not statistics). Concurrent observers
// should use Stats().Delta snapshots instead of resetting (see
// Stats.Delta).
func (rt *Runtime) ResetStats() {
	st := &rt.stats
	st.granted.Store(0)
	st.noCtxDenies.Store(0)
	st.throttleDenies.Store(0)
	st.inlineRuns.Store(0)
	st.deaths.Store(0)
	st.totalWorkers.Store(0)
	st.elided.Store(0)
	for i := range rt.stripes {
		e := &rt.stripes[i]
		e.mu.Lock()
		e.acquires = 0
		e.mu.Unlock()
	}
	rt.peak.Store(rt.live.Load())
}
