// Package captrace is the runtime's flight recorder: a sharded,
// lock-free, fixed-size ring buffer of fixed-width lifecycle events fed
// by the probe/divide hot path and read — aggregated, never locked —
// by the /debug/trace endpoint (Handler), capload's -trace exemplars
// and the captrace CLI.
//
// The paper's evaluation leans on cycle-level event traces from the
// SOMT simulator (every granted division is a DivisionEvent with its
// cycle, parent and child context); the native, serving and cluster
// tiers get the same lens here, built the way McKenney's per-CPU
// playbook says to build any hot-path observable: per-shard state on
// the write side, aggregation on the read side, so tracing never
// re-serializes the path it observes.
//
// Write-side contract (the reason this can sit inside an ~18–55 ns
// probe): recording one event is one atomic increment to claim a slot,
// one CAS to take it, a handful of atomic stores into it and one CAS
// to publish — no mutex, no allocation, no channel, and no word shared
// with another shard's writers. When a ring wraps, old events are
// overwritten: the tracer drops, it never blocks. Claims do not give a
// slot one writer at a time (a writer preempted for a whole lap meets
// the writer of the next lap on the same slot), so the slot header is
// a try-lock: a writer that finds the slot held, or already holding a
// newer claim than its own, drops its own event and counts it in
// Contended rather than wait or write over the newer one. A nil
// *Tracer disables everything at the cost of one predictable branch.
//
// Read-side contract: Snapshot walks each shard's ring backwards,
// validating every slot's sequence header before AND after copying the
// payload (all fields are single atomic words, so the copy itself can
// never tear a word). A slot held or replaced mid-read fails the
// validation and is counted as skipped, not returned — a snapshot
// under full write load is smaller, never wrong.
//
// Trace identity: a 64-bit request ID carried end to end in the
// X-Capsule-Trace-ID header. Events recorded with ID zero are
// tier-scoped (throttle transitions); everything else hangs off the
// request that caused it, so one ID reconstructs a request's journey
// router → backend → runtime.
package captrace

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// HeaderTraceID is the request/response header carrying the 16-hex-digit
// trace ID across tiers: capload stamps it, capserve and capcluster
// adopt it (an adopted ID is always traced), capcluster re-propagates it
// on dispatch, and every tier echoes it on the response.
const HeaderTraceID = "X-Capsule-Trace-ID"

// Kind identifies one lifecycle event type. The A/B payload meanings per
// kind are documented on the constants and rendered by Event.Detail.
type Kind uint8

const (
	// KNone is the zero Kind; it is never recorded.
	KNone Kind = iota

	// Runtime tier (internal/capsule).

	// KProbeGranted: a probe reserved a context token. B = context id
	// granted.
	KProbeGranted
	// KProbeDenied: a probe was refused. A = deny reason (DenyNoCtx,
	// DenyThrottle, DenyClosed). The caller then runs its own path — the
	// simulator's nthr treated as a nop — which records nothing.
	KProbeDenied
	// KHandoff: a granted division reached its worker. A = outcome
	// (HandoffSpin: the worker was still spinning, slot CAS won;
	// HandoffPark: the worker had parked, mailbox send), B = context id.
	KHandoff
	// KDeath: a worker died (kthr) and its token went home. B = context id.
	KDeath
	// KThrottleOpen / KThrottleClose: the death-rate throttle transitioned.
	// Recorded with trace ID zero — the throttle belongs to the runtime,
	// not to any one request.
	KThrottleOpen
	KThrottleClose

	// Serving tier (internal/capserve).

	// KReqAdmit: a request took an accept-queue slot. B = queue occupancy
	// after admission.
	KReqAdmit
	// KReqShed: the accept queue was full; the request was 503ed.
	KReqShed
	// KReqDegraded: the admitted request found no division headroom and
	// ran on the Sequential domain.
	KReqDegraded
	// KReqDone: the request completed. A = HTTP status, B = duration µs.
	KReqDone

	// Cluster tier (internal/capcluster).

	// KRouteRecv: the router adopted or stamped this request's trace ID.
	KRouteRecv
	// KRouteDispatch: a remote probe was granted and the request went to
	// the wire. A = backend index, B = the backend's credit ceiling at
	// dispatch (the gauge snapshot).
	KRouteDispatch
	// KRouteShed: the dispatched backend 503ed (stale credits); the
	// router moves on. A = backend index.
	KRouteShed
	// KRouteDeath: the dispatch died (transport error, timeout, 5xx).
	// A = backend index.
	KRouteDeath
	// KRouteServed: a backend's response was proxied to the client.
	// A = backend index, B = dispatch duration µs.
	KRouteServed
	// KRouteFallback: the whole fleet refused or failed and the local
	// tier served the request. A = tier (TierLocalRuntime or
	// TierSequential), B = local handling duration µs.
	KRouteFallback

	kindCount // keep last
)

// KProbeDenied reasons (Event.A).
const (
	DenyNoCtx uint16 = iota
	DenyThrottle
	DenyClosed
)

// KHandoff outcomes (Event.A).
const (
	HandoffSpin uint16 = iota // spin-hit: slot store + CAS, no wakeup
	HandoffPark               // park-wakeup: mailbox send to a parked worker
)

// KRouteFallback tiers (Event.A).
const (
	TierLocalRuntime uint16 = 1 // local capsule runtime, divisions offered
	TierSequential   uint16 = 2 // local tier degraded to sequential
)

var kindNames = [kindCount]string{
	KNone:          "none",
	KProbeGranted:  "probe_granted",
	KProbeDenied:   "probe_denied",
	KHandoff:       "handoff",
	KDeath:         "death",
	KThrottleOpen:  "throttle_open",
	KThrottleClose: "throttle_close",
	KReqAdmit:      "req_admit",
	KReqShed:       "req_shed",
	KReqDegraded:   "req_degraded",
	KReqDone:       "req_done",
	KRouteRecv:     "route_recv",
	KRouteDispatch: "route_dispatch",
	KRouteShed:     "route_shed",
	KRouteDeath:    "route_death",
	KRouteServed:   "route_served",
	KRouteFallback: "route_fallback",
}

// String returns the kind's wire name (stable: snapshots are consumed by
// a separately-built CLI).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString is the inverse of Kind.String; ok is false for names
// this build does not know (a newer snapshot read by an older CLI).
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s && Kind(k) != KNone {
			return Kind(k), true
		}
	}
	return KNone, false
}

// cacheLine is the assumed coherence-line size; shard headers are
// padded to two lines so neighbouring writers never false-share.
const cacheLine = 64

// slot is one ring entry: a sequence header plus a fixed-width payload,
// every field its own atomic word. The header is 0 while the slot is
// empty, claim+1 once the event for that claim is published, and
// writing|claim while that claim's writer holds it; a reader accepts the
// payload only when the header reads the exact expected sequence before
// and after the copy. All loads and stores are atomic (sequentially
// consistent), so the slot protocol is race-detector-clean and an
// overwrite can never be observed as a torn event: payload stores happen
// only while the header says writing, and a reader that saw one of them
// must then see that header too.
type slot struct {
	hdr    atomic.Uint64 // 0, claim+1, or writing|claim
	ts     atomic.Int64  // unix nanoseconds (wall clock: cross-process comparable)
	tid    atomic.Uint64 // trace ID, 0 = tier-scoped event
	packed atomic.Uint64 // kind<<56 | shard<<48 | a<<32 | b
}

// writing marks a slot header held by a writer; the low bits are its claim.
const writing = 1 << 63

// traceShard is one padded write head plus its ring. seq counts every
// event ever claimed on this shard; seq - len(ring) of them (when
// positive) have been overwritten, and contended counts the claims whose
// writers dropped their own event because the slot was held or newer.
type traceShard struct {
	seq       atomic.Uint64
	contended atomic.Uint64
	_         [2*cacheLine - 16]byte
	ring      []slot
}

// Tracer is the sharded recorder. A nil *Tracer is the disabled tracer:
// Record and Snapshot are safe no-ops, so call sites need exactly one
// branch and no build tags.
type Tracer struct {
	shards []traceShard
	mask   uint64
	// now is the event clock, injectable by tests. The default is wall
	// time so events from different processes on one machine merge into
	// one timeline.
	now func() int64
}

// DefaultPerShard is the per-shard ring capacity used when New is given
// a non-positive size: at ~6 events per traced request, 4096 slots hold
// several hundred requests per shard before overwrite.
const DefaultPerShard = 4096

// New builds a Tracer with shards cache-line-padded rings of perShard
// slots each (rounded up to a power of two; non-positive means
// DefaultPerShard). Non-positive shards means one per GOMAXPROCS at
// call time. Total memory is shards × perShard × 32 bytes.
func New(shards, perShard int) *Tracer {
	if shards <= 0 {
		shards = defaultShards()
	}
	if perShard <= 0 {
		perShard = DefaultPerShard
	}
	size := 1
	for size < perShard {
		size <<= 1
	}
	t := &Tracer{
		shards: make([]traceShard, shards),
		mask:   uint64(size - 1),
		now:    func() int64 { return time.Now().UnixNano() },
	}
	for i := range t.shards {
		t.shards[i].ring = make([]slot, size)
	}
	return t
}

// Shards returns the shard count (0 for the nil tracer).
func (t *Tracer) Shards() int {
	if t == nil {
		return 0
	}
	return len(t.shards)
}

// PerShard returns the per-shard ring capacity (0 for the nil tracer).
func (t *Tracer) PerShard() int {
	if t == nil {
		return 0
	}
	return int(t.mask + 1)
}

// Record writes one event. The write shard is picked by the caller's
// stack-address affinity, NOT by the shard argument — shard is a spare
// payload byte, 0 from every caller today. Safe on a nil Tracer.
//
// Cost when t is non-nil: one clock read, one atomic increment, one
// load, two CASes and three atomic stores. Zero allocations, no waiting
// of any kind — under ring overflow the oldest events are silently
// overwritten, and a writer that collides with another on its slot
// drops its own event (counted in ShardInfo.Contended).
func (t *Tracer) Record(kind Kind, tid uint64, shard uint8, a uint16, b uint32) {
	if t == nil {
		return
	}
	t.record(t.now(), kind, tid, shard, a, b)
}

// record is Record with the timestamp supplied, the seam the storm test
// uses to write self-validating payloads.
func (t *Tracer) record(ts int64, kind Kind, tid uint64, shard uint8, a uint16, b uint32) {
	s := &t.shards[writeHint(len(t.shards))]
	i := s.seq.Add(1) - 1
	sl := &s.ring[i&t.mask]
	// Take the slot from an empty or published header older than this
	// claim. Held (writing) or newer (h > i: this writer was lapped) means
	// drop: never wait, never write over a newer event.
	h := sl.hdr.Load()
	if h&writing != 0 || h > i || !sl.hdr.CompareAndSwap(h, writing|i) {
		s.contended.Add(1)
		return
	}
	sl.ts.Store(ts)
	sl.tid.Store(tid)
	sl.packed.Store(pack(kind, shard, a, b))
	sl.hdr.CompareAndSwap(writing|i, i+1) // publish
}

func pack(kind Kind, shard uint8, a uint16, b uint32) uint64 {
	return uint64(kind)<<56 | uint64(shard)<<48 | uint64(a)<<32 | uint64(b)
}

// defaultShards is one ring per P.
func defaultShards() int {
	k := runtime.GOMAXPROCS(0)
	if k < 1 {
		k = 1
	}
	return k
}

// writeHint is the per-goroutine shard affinity: a mixed hash of a
// current stack address, a few ALU ops with no allocation and no
// atomics. Distinct goroutines live on distinct stacks, so concurrent
// writers spread across rings, while one goroutine in a loop stays
// home. It is a hint, not an identity; a moved stack just re-homes the
// goroutine.
func writeHint(k int) int {
	if k == 1 {
		return 0
	}
	var b byte
	return int(mix(uint64(uintptr(unsafe.Pointer(&b)))) % uint64(k))
}

// mix is splitmix64's finaliser (shared idiom with capsule.mix, copied
// rather than imported: capsule imports this package, not vice versa).
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
