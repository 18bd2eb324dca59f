package capcluster

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capserve"
)

// A Backend is one remote capserve instance as the router sees it: a URL
// plus the purely local bookkeeping that makes a remote probe a memory
// operation. Two structures carry the probe/divide protocol across the
// process boundary:
//
//   - a credit gauge — advertised capacity vs. in-flight dispatches,
//     packed into one atomic word so the probe is a load and a CAS, the
//     exact shape of the runtime's token-stack probe. Credits are the
//     cluster's context tokens: the router grants a dispatch only while
//     it holds headroom the backend has advertised, so the deny path
//     never touches the network;
//   - a failure ring — the breaker described on failRing: backend
//     errors/timeouts are cluster-scope deaths, and enough of them
//     inside the window deny further probes until it drains.
//
// Counters are cumulative since construction and exported on the
// router's /metrics per backend.
type Backend struct {
	url      string
	name     string // host:port, the metrics label
	id       int    // index in this router's fleet (NOT stable across configs)
	nameHash uint64 // FNV of url: the identity the backoff jitter keys on

	// gauge packs {credits:32 | inflight:32}: the credit ceiling in the
	// high half, current in-flight dispatches in the low half. One word
	// means probe (CAS +1 on the low half), release (subtract 1) and
	// learn (replace the high half) can never tear against each other.
	gauge atomic.Uint64

	ring  failRing
	clock *clock // the router's

	// probation is the half-open gate: after a breaker trip, re-admission
	// is one trial dispatch at a time, not a stampede. Without it a
	// black-holing backend (timeouts, not connection-refused) would stall
	// every concurrent request for a full attempt each drain cycle; with
	// it the exposure is bounded to one in-flight trial per quiet window.
	probation atomic.Uint32

	// Failed half-open trials back off exponentially with deterministic
	// per-backend jitter (see scheduleTrial): trialFails counts
	// consecutive trial failures, nextTrialNS is the earliest instant the
	// next trial may run. Both reset the moment any response arrives.
	trialFails  atomic.Uint32
	nextTrialNS atomic.Int64

	// Push-plane state (feed.go). feedMu serializes delta application so
	// the seq check and the gauge write cannot interleave across two
	// deltas — an old delta must never overwrite a newer one, even when
	// a reconnect leaves two subscriber goroutines briefly racing.
	// Deltas arrive at heartbeat rate, so a mutex here costs nothing;
	// the probe path never touches it.
	feedMu        sync.Mutex
	feedSeq       atomic.Uint64 // highest applied delta sequence number
	freshNS       atomic.Int64  // last instant a feed delta or a header updated the gauge (neverHeard until then)
	feedConnected atomic.Bool   // a subscription stream is currently open
	feedDeltas    atomic.Uint64 // deltas applied to the gauge
	feedDrops     atomic.Uint64 // deltas discarded by the seq regression guard
	feedConnects  atomic.Uint64 // subscription streams opened (reconnects after the first)
	staleDecays   atomic.Uint64 // TTL decays toward the default credit ceiling
	feedWake      chan struct{} // Refresh's nudge: redial now, not after the backoff (capacity 1)

	dispatches    atomic.Uint64 // granted probes that went to the wire
	served        atomic.Uint64 // responses proxied back to a client
	sheds         atomic.Uint64 // backend 503s (stale credits, not deaths)
	deaths        atomic.Uint64 // transport errors, timeouts, 5xx
	creditDenies  atomic.Uint64 // probes refused for lack of credit
	breakerDenies atomic.Uint64 // probes refused by the failure breaker
	ejections     atomic.Uint64 // slow-backend ejections (CheckSlow)
	badHeaders    atomic.Uint64 // rejected credit advertisements (headers or feed deltas)

	// slowPrev is CheckSlow's cumulative dispatch-latency snapshot from
	// the previous interval. Owned by the single CheckSlow caller (the
	// refresh ticker); not for concurrent use.
	slowPrev [capserve.NumLatencyBuckets]float64

	// dispatchLatency is the duration distribution of dispatches that
	// relayed a response (capcluster_dispatch_duration_seconds on
	// /metrics). Deaths and timeouts are excluded — they have their own
	// counter, and folding a 10 s timeout into the latency signal would
	// bury the p99 the histogram exists to show. capserve's Histogram,
	// reused rather than reimplemented.
	dispatchLatency capserve.Histogram
}

const gaugeLowMask = uint64(0xFFFFFFFF)

// probation states.
const (
	probationOff   uint32 = iota // normal operation
	probationWait                // breaker tripped: admit one trial once the window is quiet
	probationTrial               // the trial dispatch is in flight
)

// neverHeard is freshNS before the first live signal: a reading no
// clock reaches, so a backend never heard from is stale from the start.
const neverHeard = math.MinInt64 / 2

func newBackend(url, name string, id int, clk *clock) *Backend {
	b := &Backend{
		url:      url,
		name:     name,
		id:       id,
		nameHash: fnv64(url),
		clock:    clk,
		feedWake: make(chan struct{}, 1),
	}
	b.freshNS.Store(neverHeard)
	b.setCredits(initialCredits)
	return b
}

// fnv64 is FNV-1a over one string — the stable backend identity hash.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.url }

// Name returns the backend's metrics label (host:port).
func (b *Backend) Name() string { return b.name }

// Credits returns the current credit ceiling (a peek, like FreeContexts).
func (b *Backend) Credits() int { return int(uint32(b.gauge.Load() >> 32)) }

// Inflight returns the dispatches currently holding a credit.
func (b *Backend) Inflight() int { return int(uint32(b.gauge.Load())) }

// Broken reports whether the failure breaker is currently denying
// probes: at least failThreshold failures inside the trailing window.
func (b *Backend) Broken() bool { return b.ring.atLeast(failThreshold, b.clock) }

// probe is ProbeRemote for this backend: reserve one credit, or refuse.
// The deny path is allocation-free and network-free — a breaker check
// (one or two atomic loads, clock only if failures exist), a probation
// load, and one gauge load — so the router can afford a probe per
// backend per request, the same economics the paper demands of nthr. On
// success the caller owes exactly one release.
func (b *Backend) probe() bool {
	if b.ring.atLeast(failThreshold, b.clock) {
		b.breakerDenies.Add(1)
		return false
	}
	switch b.probation.Load() {
	case probationWait:
		// Re-admission after a trip is gated three ways: the window must
		// be fully quiet (not one failure in it — so failed trials retry
		// at most once per window), the jittered backoff from previous
		// failed trials must have elapsed (so recovering backends aren't
		// re-tripped by a synchronized trial herd), and only one prober
		// wins the trial slot.
		if b.ring.atLeast(1, b.clock) ||
			b.clock.now() < b.nextTrialNS.Load() ||
			!b.probation.CompareAndSwap(probationWait, probationTrial) {
			b.breakerDenies.Add(1)
			return false
		}
		// This probe is the half-open trial; fall through to the credits.
	case probationTrial:
		b.breakerDenies.Add(1)
		return false
	}
	for {
		g := b.gauge.Load()
		if uint32(g) >= uint32(g>>32) { // inflight >= credits
			// A trial that cannot dispatch has nothing to resolve it:
			// hand the slot back. (Swapping a concurrent winner's slot is
			// possible and benign — one extra trial, still bounded.)
			b.probation.CompareAndSwap(probationTrial, probationWait)
			b.creditDenies.Add(1)
			return false
		}
		if b.gauge.CompareAndSwap(g, g+1) {
			return true
		}
	}
}

// release returns one credit. Subtracting 1 from the packed word cannot
// borrow into the credits half: inflight > 0 whenever a release is owed,
// because each release pairs with exactly one granted probe.
func (b *Backend) release() { b.gauge.Add(^uint64(0)) }

// fail records one cluster-scope death (error, timeout, 5xx) in the
// breaker ring, and arms (or re-arms, for a failed trial) the half-open
// probation gate. A failed *trial* additionally pushes the next trial
// out by a jittered exponential backoff.
func (b *Backend) fail() {
	b.deaths.Add(1)
	b.ring.record(b.clock.now())
	if b.probation.Load() == probationTrial {
		b.scheduleTrial(b.trialFails.Add(1))
		b.probation.Store(probationWait)
		return
	}
	if b.ring.atLeast(failThreshold, b.clock) {
		b.probation.Store(probationWait)
	}
}

// scheduleTrial sets the earliest instant of the next half-open trial
// after the fails-th consecutive trial failure.
func (b *Backend) scheduleTrial(fails uint32) {
	b.nextTrialNS.Store(b.clock.now() + int64(jitteredBackoff(b.nameHash, fails, trialBackoff)))
}

// jitteredBackoff is the delay after the n-th consecutive failure
// (n >= 1) of a backend's half-open trials or of its feed subscription:
// base·2^(n-1), the doubling capped at 2^6, jittered deterministically
// into [0.5×, 1.5×). The jitter is a pure function of (backend identity,
// n), so it is reproducible in tests yet decorrelated across backends
// and across routers probing the same fleet — no herd of trials or
// resubscriptions in lockstep.
func jitteredBackoff(nameHash uint64, n uint32, base time.Duration) time.Duration {
	shift := n - 1
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	h := mix64(nameHash ^ uint64(n)*0x9e3779b97f4a7c15)
	return d/2 + time.Duration(h%uint64(d))
}

// recover marks the backend alive: any received response (2xx, 4xx,
// even a shed) closes probation, clears the trial backoff and restores
// full probing.
func (b *Backend) recover() {
	if b.probation.Load() != probationOff {
		b.probation.Store(probationOff)
		b.trialFails.Store(0)
		b.nextTrialNS.Store(0)
	}
}

// abortTrial hands an unresolvable trial slot back (the routed client
// hung up mid-dispatch, so neither fail nor recover will run).
func (b *Backend) abortTrial() {
	b.probation.CompareAndSwap(probationTrial, probationWait)
}

// setCredits replaces the credit ceiling outright, preserving inflight.
func (b *Backend) setCredits(c int) {
	if c < 0 {
		c = 0
	}
	if c > creditCap {
		c = creditCap
	}
	for {
		g := b.gauge.Load()
		ng := uint64(c)<<32 | g&gaugeLowMask
		if g == ng || b.gauge.CompareAndSwap(g, ng) {
			return
		}
	}
}

// applyDelta folds one push-feed delta into the gauge, guarded by the
// delta's sequence number: a delta whose seq is not strictly newer than
// the last applied one of the current stream is dropped (counted in
// feedDrops), so reordered or replayed deltas can never roll the gauge
// backwards. feedOnce restarts the guard with each stream.
// A draining backend zeroes its credits instead of learning: in-flight
// dispatches finish, but no new ones start. Returns whether the delta
// was applied.
func (b *Backend) applyDelta(seq uint64, free int, draining bool) bool {
	b.feedMu.Lock()
	defer b.feedMu.Unlock()
	if seq <= b.feedSeq.Load() {
		b.feedDrops.Add(1)
		return false
	}
	b.feedSeq.Store(seq)
	if draining {
		b.setCredits(0)
	} else {
		b.learn(free)
	}
	b.markFresh()
	b.feedDeltas.Add(1)
	return true
}

// markFresh records that a live source (a feed delta or a response
// header) just taught the gauge.
func (b *Backend) markFresh() { b.freshNS.Store(b.clock.now()) }

// stale reports whether both live sources (feed and headers) have been
// quiet past staleTTL — the explicit staleness the gauge used to hide.
func (b *Backend) stale() bool {
	return b.clock.now()-b.freshNS.Load() > int64(staleTTL)
}

// decayStale moves the credit ceiling halfway toward initialCredits
// (snapping when one step away), the gauge's answer to total signal
// loss: a stale-high gauge would keep over-committing a backend nobody
// has heard from, a stale-zero gauge would starve one that recovered
// silently. Converging on the conservative default bounds both errors,
// and the breaker plus the half-open trial machinery resolve which one
// it was.
func (b *Backend) decayStale() {
	cur := b.Credits()
	if cur == initialCredits {
		return
	}
	next := cur + (initialCredits-cur)/2
	if next == cur {
		next = initialCredits
	}
	b.setCredits(next)
	b.staleDecays.Add(1)
}

// learn folds one advertised headroom reading (a feed delta or a
// response header) into the gauge: the backend can absorb everything
// this router already has in flight plus the free slots it just
// advertised, capped at creditCap. Stale advertisements self-correct —
// a backend whose queue other tenants filled advertises less, and the
// gauge shrinks with it. learn(0) with zero in flight parks the backend
// at zero credits; the next feed delta re-teaches it, and with the feed
// down the Refresh decay pass is the recovery path.
func (b *Backend) learn(free int) {
	if free < 0 {
		return
	}
	for {
		g := b.gauge.Load()
		inf := g & gaugeLowMask
		c := inf + uint64(free)
		if c > creditCap {
			c = creditCap
		}
		ng := c<<32 | inf
		if g == ng || b.gauge.CompareAndSwap(g, ng) {
			return
		}
	}
}
