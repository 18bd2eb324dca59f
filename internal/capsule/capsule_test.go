package capsule

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// quiet returns a runtime with throttling off so pool behaviour can be
// tested in isolation.
func quiet(contexts int) *Runtime {
	return New(Config{Contexts: contexts, Throttle: false})
}

func TestDefaultsApplied(t *testing.T) {
	rt := New(Config{})
	if rt.Contexts() < 1 {
		t.Fatalf("Contexts = %d, want >= 1", rt.Contexts())
	}
	if rt.cfg.DeathWindow <= 0 || rt.ring.k != uint64(max(1, rt.Contexts()/2)) {
		t.Fatalf("defaults not applied: %+v", rt.cfg)
	}
	if len(rt.stripes) != lockStripes || len(rt.stripes)&(len(rt.stripes)-1) != 0 {
		t.Fatalf("stripes = %d, want %d, a power of two", len(rt.stripes), lockStripes)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value (defaults)", Config{}, true},
		{"defaults", Defaults(), true},
		{"explicit", Config{Contexts: 2, DeathWindow: time.Millisecond}, true},
		{"negative contexts", Config{Contexts: -1}, false},
		{"contexts past the ceiling", Config{Contexts: maxContexts + 1}, false},
		{"negative window", Config{DeathWindow: -time.Microsecond}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
		rt, nerr := NewValidated(tc.cfg)
		if tc.ok && (nerr != nil || rt == nil) {
			t.Errorf("%s: NewValidated failed: %v", tc.name, nerr)
		}
		if !tc.ok && nerr == nil {
			t.Errorf("%s: NewValidated accepted an invalid config", tc.name)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Contexts = -1 without panicking")
		}
	}()
	New(Config{Contexts: -1})
}

func TestStatsDelta(t *testing.T) {
	rt := quiet(2)
	rt.Divide(func() {})
	rt.Join()
	before := rt.Stats()
	a, _ := rt.Probe()
	b, _ := rt.Probe()
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted beyond the pool")
	}
	rt.Release(a)
	rt.Release(b)
	rt.Divide(func() {})
	rt.Join()
	d := rt.Stats().Delta(before)
	if d.Probes != 4 || d.Granted != 3 || d.NoCtxDenies != 1 {
		t.Fatalf("delta = %+v, want 4 probes / 3 granted / 1 deny since snapshot", d)
	}
	if d.Deaths != 1 || d.TotalWorkers != 1 {
		t.Fatalf("delta = %+v, want 1 death / 1 worker since snapshot", d)
	}
	// Deltas of two identical snapshots are all-zero counters.
	s := rt.Stats()
	z := s.Delta(s)
	if z.Probes != 0 || z.Granted != 0 || z.Deaths != 0 || z.LockAcquires != 0 {
		t.Fatalf("self-delta = %+v, want zero counters", z)
	}
	if z.PeakWorkers != s.PeakWorkers {
		t.Fatalf("self-delta peak = %d, want carried through as %d", z.PeakWorkers, s.PeakWorkers)
	}
}

func TestProbeBoundedByContexts(t *testing.T) {
	rt := quiet(3)
	var held []*Context
	for i := 0; i < 3; i++ {
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("probe %d refused with free contexts", i)
		}
		held = append(held, c)
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted beyond the context pool")
	}
	s := rt.Stats()
	if s.Probes != 4 || s.Granted != 3 || s.NoCtxDenies != 1 {
		t.Fatalf("stats = %+v, want 4 probes / 3 granted / 1 no-ctx deny", s)
	}
	for _, c := range held {
		rt.Release(c)
	}
	if _, ok := rt.Probe(); !ok {
		t.Fatal("probe refused after releases refilled the pool")
	}
}

func TestFreeContextsPeeksWithoutProbing(t *testing.T) {
	rt := quiet(3)
	if got := rt.FreeContexts(); got != 3 {
		t.Fatalf("FreeContexts = %d, want 3", got)
	}
	c, _ := rt.Probe()
	if got := rt.FreeContexts(); got != 2 {
		t.Fatalf("FreeContexts after probe = %d, want 2", got)
	}
	rt.Release(c)
	if got := rt.FreeContexts(); got != 3 {
		t.Fatalf("FreeContexts after release = %d, want 3", got)
	}
	// Peeking is not probing: only the one real Probe is counted.
	if s := rt.Stats(); s.Probes != 1 {
		t.Fatalf("Probes = %d after peeks, want 1", s.Probes)
	}
}

func TestLIFOContextReuse(t *testing.T) {
	rt := quiet(3)
	// Initial allocation order is 0, 1, 2 (context 0 on top).
	var cs []*Context
	for want := 0; want < 3; want++ {
		c, _ := rt.Probe()
		if c.ID() != want {
			t.Fatalf("initial probe got context %d, want %d", c.ID(), want)
		}
		cs = append(cs, c)
	}
	// Release 0, 1, 2: LIFO reuse must hand back 2, 1, 0.
	for _, c := range cs {
		rt.Release(c)
	}
	for _, want := range []int{2, 1, 0} {
		c, _ := rt.Probe()
		if c.ID() != want {
			t.Fatalf("LIFO probe got context %d, want %d", c.ID(), want)
		}
	}
}

func TestWorkerDeathRefillsLIFO(t *testing.T) {
	rt := quiet(2)
	g := rt.NewGroup()
	c, _ := g.Probe()
	id := c.ID()
	g.Spawn(c, func() {})
	g.Join()
	// The dead worker's context must be the next one granted.
	c2, ok := rt.Probe()
	if !ok || c2.ID() != id {
		t.Fatalf("probe after death got (%v, %v), want context %d", c2, ok, id)
	}
	s := rt.Stats()
	if s.Deaths != 1 || s.TotalWorkers != 1 {
		t.Fatalf("stats = %+v, want 1 death / 1 worker", s)
	}
}

func TestDeathRateThrottle(t *testing.T) {
	var clock atomic.Int64
	rt := New(Config{
		Contexts:    4, // threshold defaults to 2
		Throttle:    true,
		DeathWindow: time.Microsecond,
	})
	rt.now = func() int64 { return clock.Load() }

	// Two immediate worker deaths at t=0 trip the threshold.
	for i := 0; i < 2; i++ {
		if !rt.TryDivide(func() {}) {
			t.Fatalf("probe %d refused before any deaths", i)
		}
		rt.Join()
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted while death rate is above threshold")
	}
	if s := rt.Stats(); s.ThrottleDenies != 1 {
		t.Fatalf("ThrottleDenies = %d, want 1", s.ThrottleDenies)
	}

	// Advancing past the window drains the death count.
	clock.Store(time.Microsecond.Nanoseconds() + 1)
	if _, ok := rt.Probe(); !ok {
		t.Fatal("probe refused after the death window expired")
	}
}

// TestCanDivideMatchesProbeCondition: the non-counting peek must agree
// with Probe on both refusal reasons — empty pool AND tripped throttle —
// and must not count as a probe.
func TestCanDivideMatchesProbeCondition(t *testing.T) {
	var clock atomic.Int64
	rt := New(Config{Contexts: 4, Throttle: true, DeathWindow: time.Microsecond})
	rt.now = func() int64 { return clock.Load() }

	if !rt.CanDivide() {
		t.Fatal("CanDivide false on a fresh runtime")
	}
	// Trip the throttle (threshold is 2) with tokens still free.
	for i := 0; i < 2; i++ {
		rt.TryDivide(func() {})
		rt.Join()
	}
	if rt.FreeContexts() != 4 {
		t.Fatalf("FreeContexts = %d, want 4 (all workers dead)", rt.FreeContexts())
	}
	if rt.CanDivide() {
		t.Fatal("CanDivide true while the throttle is tripped")
	}
	clock.Store(time.Microsecond.Nanoseconds() + 1)
	if !rt.CanDivide() {
		t.Fatal("CanDivide false after the death window expired")
	}
	// Empty the pool: CanDivide must go false again.
	var held []*Context
	for i := 0; i < 4; i++ {
		c, _ := rt.Probe()
		held = append(held, c)
	}
	if rt.CanDivide() {
		t.Fatal("CanDivide true with an empty pool")
	}
	for _, c := range held {
		rt.Release(c)
	}
	// Peeks don't probe: 2 throttle-trip probes + 4 holds only.
	if s := rt.Stats(); s.Probes != 6 {
		t.Fatalf("Probes = %d after peeks, want 6", s.Probes)
	}
}

func TestDivideInlineOnRefusal(t *testing.T) {
	rt := quiet(1)
	hold, _ := rt.Probe() // exhaust the pool
	ran := false
	if rt.Divide(func() { ran = true }) {
		t.Fatal("Divide reported a spawn with an empty pool")
	}
	if !ran {
		t.Fatal("Divide did not run the work inline on refusal")
	}
	if s := rt.Stats(); s.InlineRuns != 1 {
		t.Fatalf("InlineRuns = %d, want 1", s.InlineRuns)
	}
	rt.Release(hold)

	done := make(chan struct{})
	if !rt.Divide(func() { close(done) }) {
		t.Fatal("Divide ran inline with a free context")
	}
	<-done
	rt.Join()
}

func TestTryDivideDoesNothingOnRefusal(t *testing.T) {
	rt := quiet(1)
	hold, _ := rt.Probe()
	ran := false
	if rt.TryDivide(func() { ran = true }) {
		t.Fatal("TryDivide reported a spawn with an empty pool")
	}
	if ran {
		t.Fatal("TryDivide ran the work despite refusal")
	}
	rt.Release(hold)
}

func TestJoinWaitsForNestedWorkers(t *testing.T) {
	rt := quiet(8)
	var count atomic.Int64
	var spawn func(depth int)
	spawn = func(depth int) {
		count.Add(1)
		if depth > 0 {
			for i := 0; i < 2; i++ {
				d := depth - 1
				rt.Divide(func() { spawn(d) })
			}
		}
	}
	spawn(4) // 2^5 - 1 = 31 calls
	rt.Join()
	if got := count.Load(); got != 31 {
		t.Fatalf("count = %d, want 31", got)
	}
}

func TestPeakWorkers(t *testing.T) {
	rt := quiet(4)
	release := make(chan struct{})
	var up sync.WaitGroup
	for i := 0; i < 4; i++ {
		up.Add(1)
		if !rt.TryDivide(func() {
			up.Done()
			<-release
		}) {
			t.Fatalf("probe %d refused", i)
		}
	}
	up.Wait()
	if s := rt.Stats(); s.PeakWorkers != 4 {
		t.Fatalf("PeakWorkers = %d, want 4", s.PeakWorkers)
	}
	close(release)
	rt.Join()
}

func TestLockTableMutualExclusion(t *testing.T) {
	rt := quiet(8)
	// Hammer a handful of keys; some will share a stripe, which must stay
	// correct (coarser, never incorrect).
	const keys, perKey, rounds = 5, 8, 200
	counters := make([]int64, keys)
	for w := 0; w < keys*perKey; w++ {
		key := uint64(w % keys)
		rt.Divide(func() {
			for r := 0; r < rounds; r++ {
				rt.lock(key)
				counters[key]++
				rt.unlock(key)
			}
		})
	}
	rt.Join()
	for k, got := range counters {
		if got != perKey*rounds {
			t.Fatalf("counters[%d] = %d, want %d", k, got, perKey*rounds)
		}
	}
	if s := rt.Stats(); s.LockAcquires != keys*perKey*rounds {
		t.Fatalf("LockAcquires = %d, want %d", s.LockAcquires, keys*perKey*rounds)
	}
}

func TestSpawnForeignContextPanics(t *testing.T) {
	rt1, rt2 := quiet(1), quiet(1)
	c, _ := rt1.Probe()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn accepted a foreign context")
		}
		rt1.Release(c)
	}()
	rt2.NewGroup().Spawn(c, func() {})
}

func TestResetStats(t *testing.T) {
	rt := quiet(2)
	rt.Divide(func() {})
	rt.Join()
	rt.ResetStats()
	s := rt.Stats()
	if s.Probes != 0 || s.Granted != 0 || s.Deaths != 0 || s.TotalWorkers != 0 {
		t.Fatalf("stats after reset = %+v, want zeroes", s)
	}
	// The pool must be intact: both contexts grantable.
	a, ok1 := rt.Probe()
	b, ok2 := rt.Probe()
	if !ok1 || !ok2 {
		t.Fatal("pool damaged by ResetStats")
	}
	rt.Release(a)
	rt.Release(b)
}

func TestStatsString(t *testing.T) {
	rt := quiet(2)
	rt.Divide(func() {})
	rt.Join()
	if s := rt.Stats().String(); s == "" {
		t.Fatal("empty stats string")
	}
}

// TestProbeDivideContention is the race-detector workout: many goroutines
// hammer Probe/Spawn/Release, Divide, TryDivide and the lock table at
// once, with the throttle on so every deny path is exercised too. Each
// goroutine's Probe/Spawn/Release goes through its own Group.
func TestProbeDivideContention(t *testing.T) {
	rt := New(Config{Contexts: 8, Throttle: true, DeathWindow: 50 * time.Microsecond})
	var total atomic.Int64
	var outer sync.WaitGroup
	for g := 0; g < 16; g++ {
		outer.Add(1)
		go func(g int) {
			defer outer.Done()
			grp := rt.NewGroup()
			defer grp.Join()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					rt.Divide(func() { total.Add(1) })
				case 1:
					if !rt.TryDivide(func() { total.Add(1) }) {
						total.Add(1) // else-branch: do the unit ourselves
					}
				default:
					if c, ok := grp.Probe(); ok {
						if i%2 == 0 {
							grp.Spawn(c, func() { total.Add(1) })
						} else {
							rt.Release(c)
							total.Add(1)
						}
					} else {
						total.Add(1)
					}
				}
				key := uint64(g*31 + i)
				rt.lock(key)
				rt.unlock(key)
			}
		}(g)
	}
	outer.Wait()
	rt.Join()
	if got := total.Load(); got != 16*50 {
		t.Fatalf("total = %d, want %d", got, 16*50)
	}
	s := rt.Stats()
	if s.Deaths != s.TotalWorkers {
		t.Fatalf("deaths (%d) != workers spawned (%d) after Join", s.Deaths, s.TotalWorkers)
	}
	if s.Granted < s.TotalWorkers {
		t.Fatalf("granted (%d) < workers spawned (%d)", s.Granted, s.TotalWorkers)
	}
}

// TestStormNeverExceedsContexts is the sustained-contention invariant: a
// Probe/Divide storm from many goroutines must never have more than
// Contexts workers alive at once, and the pool must come back whole (all
// ids present, none duplicated) when the storm ends.
func TestStormNeverExceedsContexts(t *testing.T) {
	const contexts, stormers, rounds = 4, 32, 300
	rt := quiet(contexts)
	var live, violations, spawned atomic.Int64
	work := func() {
		if cur := live.Add(1); cur > contexts {
			violations.Add(1)
		}
		spawned.Add(1)
		live.Add(-1)
	}
	var outer sync.WaitGroup
	for g := 0; g < stormers; g++ {
		outer.Add(1)
		go func(g int) {
			defer outer.Done()
			grp := rt.NewGroup()
			defer grp.Join()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 3 {
				case 0:
					rt.TryDivide(work)
				case 1:
					if c, ok := grp.Probe(); ok {
						grp.Spawn(c, work)
					}
				default:
					if c, ok := rt.Probe(); ok {
						rt.Release(c)
					}
				}
			}
		}(g)
	}
	outer.Wait()
	rt.Join()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d workers observed beyond the %d-context pool", v, contexts)
	}
	if spawned.Load() == 0 {
		t.Fatal("storm spawned no workers at all")
	}
	if s := rt.Stats(); s.PeakWorkers > contexts {
		t.Fatalf("PeakWorkers = %d, want <= %d", s.PeakWorkers, contexts)
	}
	// Pool integrity: exactly Contexts grantable, all ids distinct.
	seen := map[int]bool{}
	var held []*Context
	for i := 0; i < contexts; i++ {
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("pool lost tokens: only %d of %d grantable", i, contexts)
		}
		if seen[c.ID()] {
			t.Fatalf("duplicate context id %d in the pool", c.ID())
		}
		seen[c.ID()] = true
		held = append(held, c)
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("pool gained tokens: granted beyond Contexts")
	}
	for _, c := range held {
		rt.Release(c)
	}
}

// TestResetStatsDuringStorm runs ResetStats concurrently with a
// Divide/Probe storm: it must stay race-free (the -race CI job is the
// real assertion) and must never damage the context pool.
func TestResetStatsDuringStorm(t *testing.T) {
	const contexts = 4
	rt := New(Config{Contexts: contexts, Throttle: true, DeathWindow: 20 * time.Microsecond})
	stop := make(chan struct{})
	var resets sync.WaitGroup
	for r := 0; r < 2; r++ {
		resets.Add(1)
		go func() {
			defer resets.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rt.ResetStats()
					_ = rt.Stats()
				}
			}
		}()
	}
	var outer sync.WaitGroup
	for g := 0; g < 16; g++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			for i := 0; i < 200; i++ {
				rt.Divide(func() {})
				rt.lock(uint64(i))
				rt.unlock(uint64(i))
			}
		}()
	}
	outer.Wait()
	close(stop)
	resets.Wait()
	rt.Join()
	time.Sleep(time.Millisecond) // let the 20µs death window drain
	// The pool must be intact after racing resets.
	var held []*Context
	for i := 0; i < contexts; i++ {
		if c, ok := rt.Probe(); ok {
			held = append(held, c)
		}
	}
	if len(held) != contexts {
		t.Fatalf("pool holds %d tokens after reset storm, want %d", len(held), contexts)
	}
	for _, c := range held {
		rt.Release(c)
	}
}
