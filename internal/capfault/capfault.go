// Package capfault is the repo's deterministic fault-injection layer:
// the chaos counterpart of the probe/divide ladder's graceful-degradation
// claim. Every tier below promises that scarcity and failure degrade by
// local decision — refused probes run sequentially, dead backends
// circuit-break, stale credits self-correct — and capfault exists to make
// the *hard* failure modes reproducible enough to gate in CI: backends
// that are slow rather than dead, partitions that black-hole one
// router↔backend edge while everything else stays healthy, bodies that
// trickle a byte at a time, resets and 5xx bursts.
//
// Two wrap points cover both sides of the process boundary:
//
//   - Transport wraps any http.RoundTripper — the router side. Faults
//     fire before the dial (partition, down, error) or around the
//     response (latency, trickle), so a router under test exercises
//     exactly the code path a misbehaving network or peer would force;
//   - Handler wraps any http.Handler — the backend side, matching the
//     in-process capserve.Backend that caprouter -spawn boots. Faults
//     fire inside the serving process, so admission, draining and
//     header stamping all run before the fault lands.
//
// Faults are composable rules scoped by backend name, probability and a
// time window, togglable at runtime — programmatically via Set/Clear, or
// over HTTP via DebugHandler (mounted as /debug/fault on -debug-addr) so
// shell scripts and CI jobs can storm a live fleet.
//
// Determinism: every probabilistic decision (does rule r fire on its
// i-th evaluation? how much jitter?) is a pure function of (seed, rule
// id, i) via a splitmix64 mix — no global rand, no clock in the roll.
// Two runs that evaluate the same rules in the same per-rule order make
// identical decisions; concurrency can interleave *which* request gets
// decision i, but the decision stream itself is fixed by the seed.
//
// The disarmed path is the contract the serving tiers depend on: with no
// rules installed a wrapped transport or handler costs one atomic
// pointer load over its unwrapped twin — cheap enough to leave the wrap
// in place permanently, which is what makes scripted storms against live
// fleets possible. TestDisarmedTransportAllocFree and
// TestDisarmedHandlerAllocFree hold the wrapped-but-inert path to the
// unwrapped one's allocations at both wrap points.
package capfault

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names one fault behaviour.
type Kind string

// The fault taxonomy. Transport-side and handler-side wraps interpret
// each kind as the same failure observed from their side of the wire.
const (
	// KindLatency delays the request by Delay plus a deterministic
	// uniform jitter in [0, Jitter), then proceeds. Composable: a
	// latency rule and a terminal rule can both fire on one request.
	KindLatency Kind = "latency"
	// KindBlackhole accepts the request and stalls until the caller's
	// context deadline: the TCP-accepted-but-unanswered failure that a
	// shared client timeout turns into a whole-budget loss. On a
	// transport the dial never happens; on a handler the goroutine
	// parks until the client gives up.
	KindBlackhole Kind = "blackhole"
	// KindPartition is a directional router↔backend partition: the
	// transport behaves exactly like a black hole for the scoped
	// backend (packets vanish, no dial, stall to deadline) while every
	// other edge stays healthy. Transport-side only; a handler treats
	// it as blackhole.
	KindPartition Kind = "partition"
	// KindTrickle lets the request through but dribbles the response
	// body Chunk bytes per ChunkDelay: alive, 2xx, and far too slow —
	// the failure mode an error-only breaker never trips on.
	KindTrickle Kind = "trickle"
	// KindReset tears the connection down abruptly: a transport returns
	// a connection-reset error without dialing; a handler panics with
	// http.ErrAbortHandler so the server closes the socket mid-stream.
	KindReset Kind = "reset"
	// KindError answers with a Status (default 500) without doing the
	// work — the 5xx burst.
	KindError Kind = "error"
	// KindDown refuses instantly, like connect-to-closed-port: the fast
	// failure, used to script churn (a backend "leaves" while its rule
	// is active and "rejoins" when it clears).
	KindDown Kind = "down"
)

// MatchAll is the Backend scope that matches every backend.
const MatchAll = "*"

// Rule scopes: which traffic class consults a rule.
const (
	// ScopeRequest rules fire on Transport and Handler traffic — the
	// dispatch/serving path. The default.
	ScopeRequest = "request"
	// ScopeFeed rules fire on FeedTransport traffic — the credit-feed
	// subscriptions — including, for the terminal kinds, per-read on
	// streams that were already established when the rule was armed. The
	// split exists so a chaos script can cut the push plane while every
	// dispatch stays healthy: the fallback paths under test are only
	// reachable when the failure is *selective*.
	ScopeFeed = "feed"
)

// Rule is one fault: what fires (Kind and its parameters), where
// (Backend scope), how often (P) and for how long (For).
type Rule struct {
	// Kind selects the behaviour. Required.
	Kind Kind `json:"kind"`
	// Backend scopes the rule to one backend — the request URL's
	// host:port on a transport, the wrap's name on a handler — or every
	// backend with MatchAll. Default: MatchAll.
	Backend string `json:"backend,omitempty"`
	// Scope selects the traffic class: ScopeRequest (dispatch/serving,
	// via Transport and Handler) or ScopeFeed (credit-feed
	// subscriptions, via FeedTransport). Default: ScopeRequest.
	Scope string `json:"scope,omitempty"`
	// P is the per-evaluation probability the rule fires, in (0, 1].
	// Default (0): 1, always.
	P float64 `json:"p,omitempty"`
	// Delay and Jitter parameterise KindLatency: the fixed delay plus a
	// deterministic uniform jitter in [0, Jitter).
	Delay  time.Duration `json:"delay,omitempty"`
	Jitter time.Duration `json:"jitter,omitempty"`
	// Status is KindError's response code. Default (0): 500.
	Status int `json:"status,omitempty"`
	// Chunk and ChunkDelay parameterise KindTrickle: Chunk bytes
	// released per ChunkDelay. Defaults: 1 byte per 10ms.
	Chunk      int           `json:"chunk,omitempty"`
	ChunkDelay time.Duration `json:"chunk_delay,omitempty"`
	// For bounds the rule's lifetime from the moment it is Set; an
	// expired rule stops firing and is pruned lazily. Default (0):
	// active until cleared.
	For time.Duration `json:"for,omitempty"`
}

// validKinds guards Set and the debug API against typo'd kinds that
// would silently never fire.
var validKinds = map[Kind]bool{
	KindLatency: true, KindBlackhole: true, KindPartition: true,
	KindTrickle: true, KindReset: true, KindError: true, KindDown: true,
}

// Validate reports whether the rule is well-formed.
func (r Rule) Validate() error {
	if !validKinds[r.Kind] {
		return fmt.Errorf("capfault: unknown kind %q", r.Kind)
	}
	if r.Scope != "" && r.Scope != ScopeRequest && r.Scope != ScopeFeed {
		return fmt.Errorf("capfault: unknown scope %q (want %q or %q)", r.Scope, ScopeRequest, ScopeFeed)
	}
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("capfault: P must be in [0,1], got %g", r.P)
	}
	if r.Delay < 0 || r.Jitter < 0 || r.ChunkDelay < 0 || r.For < 0 {
		return fmt.Errorf("capfault: durations must be >= 0")
	}
	if r.Chunk < 0 {
		return fmt.Errorf("capfault: Chunk must be >= 0, got %d", r.Chunk)
	}
	if r.Status != 0 && (r.Status < 500 || r.Status > 599) {
		return fmt.Errorf("capfault: Status must be a 5xx, got %d", r.Status)
	}
	return nil
}

// armedRule is a Rule installed in an Injector: identity for the
// deterministic roll, expiry deadline, and the per-rule decision
// counter.
type armedRule struct {
	Rule
	id       uint64
	untilNS  int64         // 0 = no expiry
	decided  atomic.Uint64 // decision index allocator
	fired    atomic.Uint64 // decisions where the rule actually fired
}

// Injector owns a rule set and mints wrapped transports and handlers
// that consult it. One Injector can back any number of wraps — the
// intended shape is one per process, shared by the router's dispatch
// transport and every spawned backend's handler, all scripted through
// one /debug/fault.
type Injector struct {
	seed uint64
	now  func() int64 // injectable for expiry tests

	mu     sync.Mutex // serializes Set/Clear; readers never take it
	nextID uint64
	rules  atomic.Pointer[[]*armedRule] // nil ⇔ disarmed fast path
}

// New builds an Injector whose probabilistic decisions are a pure
// function of seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, now: func() int64 { return time.Now().UnixNano() }}
}

// Set installs one rule and returns its id (for Clear). Rules are
// copy-on-write: installing never blocks in-flight evaluations.
func (inj *Injector) Set(r Rule) (uint64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if r.Backend == "" {
		r.Backend = MatchAll
	}
	if r.Scope == "" {
		r.Scope = ScopeRequest
	}
	if r.P == 0 {
		r.P = 1
	}
	if r.Kind == KindError && r.Status == 0 {
		r.Status = http.StatusInternalServerError
	}
	if r.Kind == KindTrickle {
		if r.Chunk == 0 {
			r.Chunk = 1
		}
		if r.ChunkDelay == 0 {
			r.ChunkDelay = 10 * time.Millisecond
		}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.nextID++
	ar := &armedRule{Rule: r, id: inj.nextID}
	if r.For > 0 {
		ar.untilNS = inj.now() + r.For.Nanoseconds()
	}
	next := inj.liveLocked()
	next = append(next, ar)
	inj.rules.Store(&next)
	return ar.id, nil
}

// Clear removes one rule by id; a stale id is a no-op.
func (inj *Injector) Clear(id uint64) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	live := inj.liveLocked()
	next := live[:0:0]
	for _, ar := range live {
		if ar.id != id {
			next = append(next, ar)
		}
	}
	inj.storeLocked(next)
}

// ClearAll removes every rule, returning the injector to the disarmed
// fast path.
func (inj *Injector) ClearAll() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rules.Store(nil)
}

// liveLocked snapshots the unexpired rules (pruning expired ones from
// the returned copy). Callers hold mu.
func (inj *Injector) liveLocked() []*armedRule {
	cur := inj.rules.Load()
	if cur == nil {
		return nil
	}
	now := inj.now()
	live := make([]*armedRule, 0, len(*cur))
	for _, ar := range *cur {
		if ar.untilNS == 0 || now <= ar.untilNS {
			live = append(live, ar)
		}
	}
	return live
}

func (inj *Injector) storeLocked(rules []*armedRule) {
	if len(rules) == 0 {
		inj.rules.Store(nil)
		return
	}
	inj.rules.Store(&rules)
}

// Armed reports whether any rule is installed (expired-but-unpruned
// rules count until the next Set/Clear prunes them; they no longer
// fire).
func (inj *Injector) Armed() bool { return inj.rules.Load() != nil }

// RuleInfo is one installed rule as the debug API reports it.
type RuleInfo struct {
	ID uint64 `json:"id"`
	Rule
	ExpiresIn time.Duration `json:"expires_in,omitempty"`
	Decided   uint64        `json:"decided"`
	Fired     uint64        `json:"fired"`
}

// Rules snapshots the installed, unexpired rules.
func (inj *Injector) Rules() []RuleInfo {
	inj.mu.Lock()
	live := inj.liveLocked()
	now := inj.now()
	inj.mu.Unlock()
	out := make([]RuleInfo, 0, len(live))
	for _, ar := range live {
		ri := RuleInfo{ID: ar.id, Rule: ar.Rule, Decided: ar.decided.Load(), Fired: ar.fired.Load()}
		if ar.untilNS != 0 {
			ri.ExpiresIn = time.Duration(ar.untilNS - now)
		}
		out = append(out, ri)
	}
	return out
}

// splitmix64's finalizer: the repo-standard cheap mixer (the capsule
// pool's shard hash uses the same construction).
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll allocates the rule's next decision index and returns the
// deterministic 64-bit hash for it — the (seed, rule, i) pure function
// every probabilistic choice derives from.
func (ar *armedRule) roll(seed uint64) uint64 {
	i := ar.decided.Add(1) - 1
	return mix(seed ^ ar.id*0x9e3779b97f4a7c15 ^ i*0x2545f4914f6cdd1d)
}

// fires decides whether the rule fires this evaluation. Always consumes
// exactly one decision index, so the stream stays aligned across runs
// regardless of P.
func (ar *armedRule) fires(seed uint64) (h uint64, ok bool) {
	h = ar.roll(seed)
	if ar.P >= 1 || float64(h>>11)/(1<<53) < ar.P {
		ar.fired.Add(1)
		return h, true
	}
	return h, false
}

// jitterFrom maps the decision hash to the rule's latency: Delay plus a
// uniform jitter in [0, Jitter) drawn from a re-mix of the hash (so the
// fire decision and the jitter are independent bits).
func (ar *armedRule) jitterFrom(h uint64) time.Duration {
	d := ar.Delay
	if ar.Jitter > 0 {
		d += time.Duration(mix(h) % uint64(ar.Jitter))
	}
	return d
}

// active reports whether the rule's window is still open.
func (ar *armedRule) active(nowNS int64) bool {
	return ar.untilNS == 0 || nowNS <= ar.untilNS
}

// matching iterates the installed rules matching (scope, backend) and
// calls f for each that fires, stopping early when f returns false.
// Returns false only on the disarmed fast path, so callers can skip
// their per-request setup entirely.
func (inj *Injector) matching(scope, backend string, f func(*armedRule, uint64) bool) bool {
	rules := inj.rules.Load()
	if rules == nil {
		return false
	}
	now := inj.now()
	for _, ar := range *rules {
		if ar.Scope != scope {
			continue
		}
		if ar.Backend != MatchAll && ar.Backend != backend {
			continue
		}
		if !ar.active(now) {
			continue
		}
		if h, ok := ar.fires(inj.seed); ok {
			if !f(ar, h) {
				break
			}
		}
	}
	return true
}

// sleepCtx sleeps d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// faultErr is the transport-side injected failure, distinguishable in
// logs from organic transport errors.
type faultErr struct {
	kind Kind
	err  error
}

func (e *faultErr) Error() string {
	if e.err != nil {
		return fmt.Sprintf("capfault: injected %s: %v", e.kind, e.err)
	}
	return fmt.Sprintf("capfault: injected %s", e.kind)
}

func (e *faultErr) Unwrap() error { return e.err }

// Timeout marks blackhole/partition faults as timeouts, matching what a
// real stalled peer produces through net/http.
func (e *faultErr) Timeout() bool {
	return e.kind == KindBlackhole || e.kind == KindPartition
}

// slowReader dribbles an underlying reader chunk bytes per delay — the
// transport-side view of a trickling backend.
type slowReader struct {
	io.ReadCloser
	ctx   context.Context
	chunk int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if err := sleepCtx(s.ctx, s.delay); err != nil {
		return 0, err
	}
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.ReadCloser.Read(p)
}
