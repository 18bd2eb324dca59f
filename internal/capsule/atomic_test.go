package capsule

// Tests for the lock-free hot path: the Treiber token stack, the atomic
// death ring (including wraparound), Close racing in-flight divisions,
// the Stats accounting identity, and the allocation-free guarantees.

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/captrace"
)

// offerRange is a division site shaped like the workloads': on a grant a
// worker adds hi-lo to *sum, on a refusal the caller does. It reports
// whether the probe was refused.
func offerRange(dom Domain, sum *int, lo, hi int) bool {
	if c, ok := dom.Probe(); ok {
		dom.Spawn(c, func() { *sum += hi - lo })
		return false
	}
	*sum += hi - lo
	return true
}

// nopFn is a static func value: the alloc tests must not be charged for a
// per-call closure.
func nopFn() {}

// atGOMAXPROCS runs fn as a subtest at 1, 2 and 4 Ps: the storms below
// must hold on any core count, not only the one CI happens to have.
func atGOMAXPROCS(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestTokenStackStorm hammers pop/push on the Treiber stack from many
// goroutines, with an owner word per id asserting that every token is
// held by at most one goroutine at every instant, and then checks
// conservation: every id still present exactly once. With as many
// stormers as tokens a popper never finds the stack empty (it holds
// nothing while it pops, so at most n-1 ids are out), so any refusal
// there is a refusal from a non-empty stack.
func TestTokenStackStorm(t *testing.T) {
	const n, rounds = 8, 2000
	for _, tc := range []struct {
		name        string
		stormers    int
		mayRunEmpty bool
	}{
		{"never-empty", n, false},
		{"oversubscribed", 2 * n, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atGOMAXPROCS(t, func(t *testing.T) {
				var s tokenStack
				s.init(n)
				owner := make([]atomic.Int32, n)
				var violations, refusals atomic.Int64
				var outer sync.WaitGroup
				for g := 0; g < tc.stormers; g++ {
					outer.Add(1)
					go func(me int32) {
						defer outer.Done()
						for i := 0; i < rounds; i++ {
							id, ok := s.pop()
							if !ok {
								refusals.Add(1)
								continue
							}
							if id < 0 || id >= n || !owner[id].CompareAndSwap(0, me) {
								violations.Add(1) // out of range, or someone else holds this id
							}
							if free := s.free(); free < 0 || free > n {
								violations.Add(1)
							}
							owner[id].Store(0)
							s.push(id)
						}
					}(int32(g + 1))
				}
				outer.Wait()
				if v := violations.Load(); v != 0 {
					t.Fatalf("%d single-ownership or free-count violations", v)
				}
				if r := refusals.Load(); r != 0 && !tc.mayRunEmpty {
					t.Fatalf("%d pops refused from a stack that was never empty", r)
				}
				if got := s.free(); got != n {
					t.Fatalf("free count = %d after storm, want %d", got, n)
				}
				seen := map[int]bool{}
				for i := 0; i < n; i++ {
					id, ok := s.pop()
					if !ok {
						t.Fatalf("stack lost ids: only %d of %d poppable", i, n)
					}
					if seen[id] {
						t.Fatalf("duplicate id %d", id)
					}
					seen[id] = true
				}
				if _, ok := s.pop(); ok {
					t.Fatal("stack gained ids")
				}
			})
		})
	}
}

// TestStatsAccountingInvariant: Probes is derived from the outcome
// counters, so every snapshot taken during a divide storm — and every
// delta between two consecutive ones — must satisfy Probes == Granted +
// NoCtxDenies + ThrottleDenies exactly, with no counter running backwards.
// Half the stormers offer through Groups, which count on their own lines
// and fold into the runtime at Join: once every group has joined, the
// runtime's counters are the groups' plus the direct callers', exactly,
// and the lock count is every Lock made through any domain.
func TestStatsAccountingInvariant(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		rt := New(Config{Contexts: 4, Throttle: true, DeathWindow: 20 * time.Microsecond})
		defer rt.Close()
		stop := make(chan struct{})
		var violations atomic.Int64
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				prev := rt.Stats()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s := rt.Stats()
					d := s.Delta(prev)
					if s.Probes != s.Granted+s.NoCtxDenies+s.ThrottleDenies ||
						d.Probes != d.Granted+d.NoCtxDenies+d.ThrottleDenies ||
						s.Granted < prev.Granted || s.NoCtxDenies < prev.NoCtxDenies || s.ThrottleDenies < prev.ThrottleDenies ||
						s.InlineRuns < prev.InlineRuns || s.LockAcquires < prev.LockAcquires {
						violations.Add(1)
					}
					prev = s
				}
			}()
		}
		const stormers, offers, perGroup = 8, 500, 10
		var direct struct{ granted, inline atomic.Uint64 }
		var grouped struct{ granted, noCtx, throttle atomic.Uint64 }
		var stormWG sync.WaitGroup
		for g := 0; g < stormers; g++ {
			stormWG.Add(1)
			go func(g int) {
				defer stormWG.Done()
				if g%2 == 0 {
					seq := rt.Sequential()
					for i := 0; i < offers; i++ {
						if rt.Divide(func() {}) {
							direct.granted.Add(1)
						} else {
							direct.inline.Add(1)
						}
						rt.Lock(uint64(i))
						rt.Unlock(uint64(i))
						seq.Lock(uint64(i))
						seq.Unlock(uint64(i))
					}
					return
				}
				for i := 0; i < offers; i += perGroup {
					grp := rt.NewGroup()
					for j := 0; j < perGroup; j++ {
						if j%2 == 0 {
							spawnOnce(grp, nopFn)
						} else {
							// A worker that offers too: its counts must
							// reach the runtime through the same fold.
							spawnOnce(grp, func() { spawnOnce(grp, nopFn) })
						}
						grp.Lock(uint64(j))
						grp.Unlock(uint64(j))
						if j == perGroup/2 {
							grp.Join() // mid-life join: deltas, not totals, fold
						}
					}
					grp.Join()
					gs := grp.Stats()
					if gs.Probes != gs.Granted+gs.NoCtxDenies+gs.ThrottleDenies || gs.Probes < perGroup {
						violations.Add(1)
					}
					grouped.granted.Add(gs.Granted)
					grouped.noCtx.Add(gs.NoCtxDenies)
					grouped.throttle.Add(gs.ThrottleDenies)
				}
			}(g)
		}
		stormWG.Wait()
		close(stop)
		readers.Wait()
		rt.Join()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d snapshots, deltas or group stats broke Probes == outcomes", v)
		}
		s := rt.Stats()
		if want := grouped.granted.Load() + direct.granted.Load(); s.Granted != want {
			t.Fatalf("Granted = %d, want %d (groups %d + direct %d)", s.Granted, want, grouped.granted.Load(), direct.granted.Load())
		}
		if want := direct.inline.Load(); s.InlineRuns != want {
			t.Fatalf("InlineRuns = %d, want %d (Runtime.Divide only)", s.InlineRuns, want)
		}
		// A direct caller cannot see why it was refused, so the per-reason
		// check is on what is left once the groups' shares are taken out:
		// neither reason negative, together the direct callers' refusals.
		noCtx, throttle := s.NoCtxDenies-grouped.noCtx.Load(), s.ThrottleDenies-grouped.throttle.Load()
		if int64(noCtx) < 0 || int64(throttle) < 0 || noCtx+throttle != direct.inline.Load() {
			t.Fatalf("denies %d no-ctx / %d throttle, groups' share %d / %d, leaves %d / %d for %d direct refusals",
				s.NoCtxDenies, s.ThrottleDenies, grouped.noCtx.Load(), grouped.throttle.Load(), int64(noCtx), int64(throttle), direct.inline.Load())
		}
		if s.Deaths != s.TotalWorkers || s.TotalWorkers != s.Granted {
			t.Fatalf("deaths %d / workers %d / granted %d disagree after Join", s.Deaths, s.TotalWorkers, s.Granted)
		}
		if want := uint64(stormers/2*offers*2 + stormers/2*offers); s.LockAcquires != want {
			t.Fatalf("LockAcquires = %d, want %d (every Lock through Runtime, Sequential and Group)", s.LockAcquires, want)
		}
		rt.ResetStats()
		if s := rt.Stats(); s.LockAcquires != 0 || s.Probes != 0 || s.InlineRuns != 0 {
			t.Fatalf("stats after ResetStats = %+v, want zero counts", s)
		}
	})
}

// TestThrottleRingWraparound drives the death ring far past its capacity
// with an injected clock: slow deaths must never trip the throttle no
// matter how often the ring wraps, and a burst must still trip it after
// the wraparound.
func TestThrottleRingWraparound(t *testing.T) {
	var clock atomic.Int64
	rt := New(Config{Contexts: 6, Throttle: true, DeathWindow: time.Microsecond}) // threshold 6/2 = 3
	rt.now = clock.Load
	if len(rt.ring.ts) != 4 {
		t.Fatalf("ring size = %d for threshold 3, want 4", len(rt.ring.ts))
	}
	// 11 deaths spaced 10µs apart (10x the window): the ring wraps nearly
	// three times and the throttle must never trip.
	for i := 0; i < 11; i++ {
		clock.Add(10 * time.Microsecond.Nanoseconds())
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("probe %d refused with slow deaths only (stats %+v)", i, rt.Stats())
		}
		rt.Spawn(c, func() {})
		rt.Join()
	}
	if got := rt.ring.seq.Load(); got != 11 {
		t.Fatalf("ring recorded %d deaths, want 11", got)
	}
	// A burst of 3 deaths at one instant trips the threshold. Advance the
	// clock first so the last slow death is outside the window and only
	// the burst itself counts.
	clock.Add(10 * time.Microsecond.Nanoseconds())
	for i := 0; i < 3; i++ {
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("burst probe %d refused", i)
		}
		rt.Spawn(c, func() {})
		rt.Join()
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted right after a threshold burst")
	}
	if s := rt.Stats(); s.ThrottleDenies != 1 {
		t.Fatalf("ThrottleDenies = %d, want 1", s.ThrottleDenies)
	}
	// Advancing past the window drains it again.
	clock.Add(2 * time.Microsecond.Nanoseconds())
	if _, ok := rt.Probe(); !ok {
		t.Fatal("probe refused after the window expired")
	}
}

// TestProbeClockReads pins where the clock is read: never by a probe
// the pool refuses, never while no throttle window is open, once per
// probe while one is — and the window a burst of k deaths opens runs
// from the k-th most recent of them.
func TestProbeClockReads(t *testing.T) {
	const window = 100
	var clock, reads atomic.Int64
	rt := New(Config{Contexts: 6, Throttle: true, DeathWindow: window}) // threshold 6/2 = 3
	defer rt.Close()
	rt.now = func() int64 { reads.Add(1); return clock.Load() }
	probes := func(n int, wantGranted bool) (clockReads int64) {
		t.Helper()
		before := reads.Load()
		for i := 0; i < n; i++ {
			c, ok := rt.Probe()
			if ok != wantGranted {
				t.Fatalf("probe %d at t=%d: granted = %t, want %t (stats %+v)", i, clock.Load(), ok, wantGranted, rt.Stats())
			}
			if ok {
				rt.Release(c)
			}
		}
		return reads.Load() - before
	}
	die := func(at int64) {
		t.Helper()
		clock.Store(at)
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("probe refused at t=%d before the burst was complete", at)
		}
		rt.Spawn(c, func() {})
		rt.Join()
	}

	if got := probes(100, true); got != 0 {
		t.Fatalf("%d clock reads by probes on a runtime with no deaths, want 0", got)
	}
	// Deaths at 10, 20, 30: the third completes the burst, and the window
	// is the first one's.
	die(10)
	die(20)
	if got := probes(100, true); got != 0 {
		t.Fatalf("%d clock reads by probes below the death threshold, want 0", got)
	}
	die(30)
	if got := rt.throttleUntil.Load(); got != 10+window {
		t.Fatalf("deadline = %d, want %d (third most recent death + window)", got, 10+window)
	}
	clock.Store(10 + window) // the deadline itself is still inside
	if got := probes(100, false); got != 100 {
		t.Fatalf("%d clock reads by 100 throttled probes, want 100", got)
	}
	// No-ctx wins: with the pool empty the open throttle is never
	// consulted, so neither is the clock.
	rt.throttleUntil.Store(0)
	var held []*Context
	for i := 0; i < rt.Contexts(); i++ {
		c, _ := rt.Probe()
		held = append(held, c)
	}
	rt.throttleUntil.Store(10 + window)
	before := rt.Stats()
	if got := probes(100, false); got != 0 {
		t.Fatalf("%d clock reads by refusals on an empty pool, want 0", got)
	}
	if d := rt.Stats().Delta(before); d.NoCtxDenies != 100 || d.ThrottleDenies != 0 {
		t.Fatalf("empty pool under an open throttle refused as %+v, want 100 no-ctx", d)
	}
	for _, c := range held {
		rt.Release(c)
	}
	// The first probe past the deadline reads the clock and closes the
	// window; after that nobody reads it again.
	clock.Store(10 + window + 1)
	if got := probes(1, true); got != 1 {
		t.Fatalf("%d clock reads by the probe that finds the window expired, want 1", got)
	}
	if got := probes(100, true); got != 0 {
		t.Fatalf("%d clock reads by probes after the window was seen closed, want 0", got)
	}
}

// TestCloseDuringDivideStorm races Close against in-flight Divides: every
// offer's work must still run exactly once (spawned before the close wins,
// inline after), Close must return, and the runtime must end up fully
// shut: probes refused, peeks false, pool drained.
func TestCloseDuringDivideStorm(t *testing.T) {
	const stormers, rounds = 8, 300
	rt := New(Config{Contexts: 4, Throttle: true, DeathWindow: 50 * time.Microsecond})
	var total atomic.Int64
	var outer sync.WaitGroup
	for g := 0; g < stormers; g++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			for i := 0; i < rounds; i++ {
				rt.Divide(func() { total.Add(1) })
			}
		}()
	}
	rt.Close() // races the storm's first offers
	outer.Wait()
	if got := total.Load(); got != stormers*rounds {
		t.Fatalf("work ran %d times, want %d", got, stormers*rounds)
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted after Close")
	}
	if rt.CanDivide() {
		t.Fatal("CanDivide true after Close")
	}
	if got := rt.FreeContexts(); got != 0 {
		t.Fatalf("FreeContexts = %d after Close, want 0 (drained)", got)
	}
	s := rt.Stats()
	if s.Deaths != s.TotalWorkers {
		t.Fatalf("deaths (%d) != workers (%d) after Close", s.Deaths, s.TotalWorkers)
	}
	rt.Join()  // immediate: no workers left
	rt.Close() // idempotent
}

// TestCloseWaitsForHeldToken: a token probed before Close must be allowed
// to Spawn, and Close must wait for that worker's death.
func TestCloseWaitsForHeldToken(t *testing.T) {
	rt := quiet(2)
	c, ok := rt.Probe()
	if !ok {
		t.Fatal("probe refused on a fresh runtime")
	}
	ran := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	// Close cannot finish while we hold the token.
	select {
	case <-closed:
		t.Fatal("Close returned while a token was still held")
	case <-time.After(10 * time.Millisecond):
	}
	rt.Spawn(c, func() { close(ran) })
	<-ran
	<-closed
	if s := rt.Stats(); s.TotalWorkers != 1 || s.Deaths != 1 {
		t.Fatalf("stats = %+v, want the held token's worker spawned and dead", s)
	}
}

// TestWorkerStatePadding pins the handoff-slot layout: whole cache
// lines, at least two, so neighbouring workers never false-share.
func TestWorkerStatePadding(t *testing.T) {
	if size := unsafe.Sizeof(workerState{}); size%cacheLine != 0 || size < 2*cacheLine {
		t.Errorf("workerState size = %d, want a multiple of %d and >= %d", size, cacheLine, 2*cacheLine)
	}
}

// TestStripePadding pins the lock-table layout: an entry is whole cache
// lines with its mutex and its count on the same one, so two callers
// share a line only when they share a lock. A Group is whole lines for
// the same reason: its counters are written on every offer.
func TestStripePadding(t *testing.T) {
	var s stripe
	if size := unsafe.Sizeof(s); size == 0 || size%cacheLine != 0 {
		t.Errorf("stripe size = %d, want a multiple of %d", size, cacheLine)
	}
	if mu, n := unsafe.Offsetof(s.mu), unsafe.Offsetof(s.acquires); mu/cacheLine != (n+unsafe.Sizeof(s.acquires)-1)/cacheLine {
		t.Errorf("stripe mutex at %d and count at %d are on different cache lines", mu, n)
	}
	if size := unsafe.Sizeof(Group{}); size%cacheLine != 0 {
		t.Errorf("Group size = %d, want a multiple of %d", size, cacheLine)
	}
}

// TestHotPathZeroAllocs holds the allocation ceilings of the price list
// (the capsule.*_allocs rows of `go run ./benchmark --trace 1`), and of
// the states that list never visits, on any core count: Probe, Release,
// every refusal, the lock and a sampled request's ring writes allocate
// nothing; a granted divide at most once.
func TestHotPathZeroAllocs(t *testing.T) {
	rt := New(Config{Contexts: 2, Throttle: true, DeathWindow: 100 * time.Microsecond})
	defer rt.Close()
	if got := testing.AllocsPerRun(1000, func() {
		c, ok := rt.Probe()
		if !ok {
			t.Fatal("probe refused with a free pool")
		}
		rt.Release(c)
	}); got != 0 {
		t.Fatalf("Probe+Release allocs/op = %v, want 0", got)
	}

	// From here to their Release below the test holds both tokens, and the
	// deferred Close of a runtime with a token out never returns: so every
	// check in between reports with Error, never Fatal, and hands back any
	// token it is wrongly granted.
	ceiling := func(what string, max float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(1000, fn); got > max {
			t.Errorf("%s allocs/op = %v, want <= %v", what, got, max)
		}
	}
	a, _ := rt.Probe()
	b, _ := rt.Probe() // pool empty: refusal paths
	ceiling("refused Probe", 0, func() {
		if c, ok := rt.Probe(); ok {
			rt.Release(c)
			t.Error("probe granted from an empty pool")
		}
	})
	before := rt.Stats()
	ceiling("refused TryDivide", 0, func() {
		if rt.TryDivide(nopFn) {
			t.Error("divide granted from an empty pool")
		}
	})
	// A pool-empty refusal moves exactly one counter.
	if d := rt.Stats().Delta(before); d.NoCtxDenies == 0 || d != (Stats{Probes: d.NoCtxDenies, NoCtxDenies: d.NoCtxDenies, PeakWorkers: d.PeakWorkers}) {
		t.Errorf("refused TryDivides moved more than NoCtxDenies: %+v", d)
	}
	// The refused offer and the lock as a served request meets them: two
	// requests, a Group each, every probe refused — also when the Group
	// folds its counts into the runtime's at Join.
	g1, g2 := rt.NewGroup(), rt.NewGroup()
	ceiling("refused Group.Probe + Join", 0, func() {
		if _, ok := g1.Probe(); ok {
			t.Error("group probe granted from an empty pool")
		}
		if _, ok := g2.Probe(); ok {
			t.Error("group probe granted from an empty pool")
		}
		g1.Join()
	})
	// The division site as the workloads write it, called through a
	// Domain interface value on every implementation: the closure that
	// captures the caller's range is built only on the granted branch, so
	// a refusal allocates nothing (a pre-built nopFn could not show this).
	sum := 0
	for name, dom := range map[string]Domain{"Runtime": rt, "Group": g1, "Sequential": rt.Sequential()} {
		ceiling("refused "+name+" Probe at a workload-shaped site", 0, func() {
			sum = 0
			if !offerRange(dom, &sum, 3, 5) {
				t.Errorf("%s probe granted from an empty pool", name)
			}
			if sum != 2 {
				t.Errorf("%s refused site did not run the range on the caller", name)
			}
		})
	}
	key := uint64(0)
	ceiling("Lock+Unlock", 0, func() {
		key++
		rt.Lock(key & 63)
		rt.Unlock(key & 63)
	})
	rt.Release(a)
	rt.Release(b)

	// A refusal on a runtime that has lived: one death in the ring, its
	// window long expired, and the token that death freed taken again.
	var clock atomic.Int64
	aged := New(Config{Contexts: 1, Throttle: true, DeathWindow: 100 * time.Microsecond})
	defer aged.Close()
	aged.now = clock.Load
	aged.Divide(nopFn)
	aged.Join()
	clock.Store(time.Millisecond.Nanoseconds())
	hold, ok := aged.Probe()
	if !ok {
		t.Fatal("probe refused after the death window expired")
	}
	ceiling("refused Probe after a death", 0, func() {
		if c, ok := aged.Probe(); ok {
			aged.Release(c)
			t.Error("probe granted from an empty pool")
		}
	})
	aged.Release(hold)

	// The granted divide allocates nothing in the runtime: the one
	// tolerated alloc is noise, never a per-spawn goroutine or closure.
	// Same ceilings with a tracer armed and the request sampled, where
	// every probe outcome, handoff and death is a ring write.
	tr := captrace.New(0, 0)
	for name, cfg := range map[string]Config{"untraced": {Contexts: 4}, "traced": {Contexts: 4, Tracer: tr}} {
		fresh, tid := New(cfg), uint64(0)
		defer fresh.Close()
		if cfg.Tracer != nil {
			tid = 0x00c0ffee00c0ffee
		}
		g := fresh.NewGroupTraced(tid)
		ceiling(name+" Group Probe+Release", 0, func() {
			c, ok := g.Probe()
			if !ok {
				t.Fatal("probe refused with a free pool")
			}
			fresh.Release(c)
		})
		ceiling(name+" granted Group Probe+Spawn + Join", 1, func() {
			c, ok := g.Probe()
			if !ok {
				t.Fatal("probe refused with a free pool")
			}
			g.Spawn(c, nopFn)
			g.Join()
		})
	}
	if n := len(tr.Snapshot("test", 0).Events); n == 0 {
		t.Fatal("the traced cases recorded no events: the ring-write path was not exercised")
	}
}

// TestProbeReleaseInterleavingStorm is the dedicated pool race test:
// probers that only Probe/Release (no spawns, no deaths) interleaving
// with probers that Divide or Probe/Spawn, while peeks run concurrently.
func TestProbeReleaseInterleavingStorm(t *testing.T) {
	const contexts = 4
	rt := New(Config{Contexts: contexts, Throttle: true, DeathWindow: 30 * time.Microsecond})
	stop := make(chan struct{})
	var peeks sync.WaitGroup
	peeks.Add(1)
	go func() {
		defer peeks.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if n := rt.FreeContexts(); n < 0 || n > contexts {
					panic("free count out of range")
				}
				rt.CanDivide()
			}
		}
	}()
	var outer sync.WaitGroup
	for g := 0; g < 12; g++ {
		outer.Add(1)
		go func(g int) {
			defer outer.Done()
			for i := 0; i < 400; i++ {
				switch g % 3 {
				case 0:
					if c, ok := rt.Probe(); ok {
						rt.Release(c)
					}
				case 1:
					rt.Divide(func() {})
				default:
					if c, ok := rt.Probe(); ok {
						rt.Spawn(c, func() {})
					}
				}
			}
		}(g)
	}
	outer.Wait()
	close(stop)
	peeks.Wait()
	rt.Join()
	time.Sleep(time.Millisecond) // let the 30µs death window drain
	// Pool integrity: all tokens accounted for, each exactly once.
	seen := map[int]bool{}
	var held []*Context
	for i := 0; i < contexts; i++ {
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("pool lost tokens: %d of %d grantable (stats %+v)", i, contexts, rt.Stats())
		}
		if seen[c.ID()] {
			t.Fatalf("duplicate context id %d", c.ID())
		}
		seen[c.ID()] = true
		held = append(held, c)
	}
	for _, c := range held {
		rt.Release(c)
	}
}
