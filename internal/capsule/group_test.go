package capsule

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupJoinWaitsOnlyOwnWorkers(t *testing.T) {
	rt := quiet(4)
	g1, g2 := rt.NewGroup(), rt.NewGroup()

	block := make(chan struct{})
	started := make(chan struct{})
	c, ok := g1.Probe()
	if !ok {
		t.Fatal("g1 division refused with a free pool")
	}
	g1.Spawn(c, func() { close(started); <-block })
	<-started

	var n atomic.Int64
	for i := 0; i < 8; i++ {
		if c, ok := g2.Probe(); ok {
			g2.Spawn(c, func() { n.Add(1) })
		} else {
			n.Add(1)
		}
	}
	// g2.Join must return while g1's worker is still blocked.
	g2.Join()
	if got := n.Load(); got != 8 {
		t.Fatalf("g2 work after Join = %d, want 8", got)
	}

	close(block)
	g1.Join()
	rt.Join() // runtime-wide join still covers both groups
	s := rt.Stats()
	if s.Deaths != s.TotalWorkers {
		t.Fatalf("deaths (%d) != workers (%d) after all joins", s.Deaths, s.TotalWorkers)
	}
}

func TestGroupStatsCountOwnDivisions(t *testing.T) {
	rt := quiet(1)
	g := rt.NewGroup()
	hold, _ := rt.Probe() // empty the pool: every offer is refused
	for i := 0; i < 2; i++ {
		if _, ok := g.Probe(); ok {
			t.Fatal("Probe granted with an empty pool")
		}
	}
	rt.Release(hold)
	c, ok := g.Probe()
	if !ok {
		t.Fatal("Probe refused with a free pool")
	}
	g.Spawn(c, func() {})
	g.Join()

	gs := g.Stats()
	if gs.Probes != 3 || gs.Granted != 1 || gs.NoCtxDenies != 2 {
		t.Fatalf("group stats = %+v, want 3 probes / 1 granted / 2 no-ctx", gs)
	}
	if got := gs.GrantRate(); got <= 0 || got >= 1 {
		t.Fatalf("grant rate = %v, want in (0,1)", got)
	}
	// The group's offers are also visible runtime-wide; refusals through
	// a Domain are the caller's own path, not Runtime.Divide's inline run.
	if s := rt.Stats(); s.Probes != 4 || s.NoCtxDenies != 2 || s.InlineRuns != 0 { // +1 probe: the held token
		t.Fatalf("runtime stats = %+v, want the group's probes included", s)
	}
}

// TestRuntimeIsNoDomain: a division scope is a component's, not the
// machine's, so the Runtime does not satisfy Domain — only a Group and
// Sequential do.
func TestRuntimeIsNoDomain(t *testing.T) {
	rt := quiet(1)
	if _, ok := any(rt).(Domain); ok {
		t.Fatal("*Runtime implements Domain")
	}
	for _, dom := range []any{rt.NewGroup(), rt.Sequential()} {
		if _, ok := dom.(Domain); !ok {
			t.Fatalf("%T does not implement Domain", dom)
		}
	}
}

func TestSequentialDomainNeverDivides(t *testing.T) {
	rt := quiet(4)
	seq := rt.Sequential()
	if c, ok := seq.Probe(); ok || c != nil {
		t.Fatalf("sequential Probe granted %v", c)
	}
	seq.Join() // no-op, must not block
	func() {
		defer func() {
			if recover() == nil {
				t.Error("sequential Spawn did not panic")
			}
		}()
		seq.Spawn(&rt.ctxs[0], func() {})
	}()
	// A sequential task makes no offers: division counters untouched.
	if s := rt.Stats(); s.Probes != 0 || s.InlineRuns != 0 || s.TotalWorkers != 0 {
		t.Fatalf("stats = %+v, want untouched", s)
	}
	// But the lock table is shared and counted.
	seq.Lock(7)
	seq.Unlock(7)
	if s := rt.Stats(); s.LockAcquires != 1 {
		t.Fatalf("LockAcquires = %d, want 1", s.LockAcquires)
	}
}

// TestConcurrentGroupsShareThePool runs many groups at once and checks the
// shared pool bounds all of them together.
func TestConcurrentGroupsShareThePool(t *testing.T) {
	const contexts, groups, divisions = 4, 8, 200
	rt := quiet(contexts)
	var live, peak, total atomic.Int64
	var outer sync.WaitGroup
	for i := 0; i < groups; i++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			g := rt.NewGroup()
			work := func() {
				cur := live.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				total.Add(1)
				live.Add(-1)
			}
			for j := 0; j < divisions; j++ {
				if c, ok := g.Probe(); ok {
					g.Spawn(c, work)
				} else {
					work()
				}
			}
			g.Join()
		}()
	}
	outer.Wait()
	if got := total.Load(); got != groups*divisions {
		t.Fatalf("total work = %d, want %d", got, groups*divisions)
	}
	if p := peak.Load(); p > contexts+groups {
		// Spawned workers are capped by the pool; inline runs add at most
		// one live execution per group goroutine.
		t.Fatalf("peak live executions = %d, want <= %d", p, contexts+groups)
	}
	if s := rt.Stats(); s.PeakWorkers > contexts {
		t.Fatalf("PeakWorkers = %d, want <= %d (pool bound)", s.PeakWorkers, contexts)
	}
}

// TestGroupElidedLockExcludesChild: a Lock taken while the group has no
// live worker takes no table entry, yet a worker spawned while the key is
// held is still excluded, because Spawn first takes every held key on the
// table — once per entry, when two held keys share one. The owner and the
// child write the same plain int inside their critical sections, so a
// broken exclusion is a race the race detector reports as well.
func TestGroupElidedLockExcludesChild(t *testing.T) {
	rt := quiet(2) // not closed on a failure: a wedged Spawn holds a token
	const k1 = 7
	k2 := uint64(k1 + 1) // a second key on k1's table entry
	for rt.stripeFor(k2) != rt.stripeFor(k1) {
		k2++
	}
	// onTable reports whether some goroutine holds key's table entry.
	onTable := func(key uint64) bool {
		s := rt.stripeFor(key)
		if s.mu.TryLock() {
			s.mu.Unlock()
			return false
		}
		return true
	}
	for _, tc := range []struct {
		name string
		held []uint64
	}{
		{"one key", []uint64{k1}},
		{"two keys on one entry", []uint64{k1, k2}},
	} {
		if !t.Run(tc.name, func(t *testing.T) {
			before := rt.Stats()
			g := rt.NewGroup()
			for _, k := range tc.held {
				g.Lock(k)
			}
			if onTable(k1) {
				t.Error("a Lock with no live worker took its table entry")
			}
			c, ok := g.Probe()
			if !ok {
				t.Fatal("Probe refused with a free pool")
			}
			start, entered, spawned := make(chan struct{}), make(chan struct{}), make(chan struct{})
			shared := 0
			go func() {
				g.Spawn(c, func() {
					<-start
					g.Lock(k1)
					shared++
					close(entered)
					g.Unlock(k1)
				})
				close(spawned)
			}()
			select {
			case <-spawned:
			case <-time.After(10 * time.Second):
				t.Fatal("Spawn deadlocked taking the held keys on the table")
			}
			if !onTable(k1) {
				t.Error("Spawn handed off with the owner's keys off the table")
			}
			shared++ // the owner's critical section, beside a live child
			close(start)
			for i, k := range tc.held {
				select {
				case <-entered:
					t.Errorf("the child entered while the owner held %v", tc.held[i:])
				case <-time.After(20 * time.Millisecond):
				}
				g.Unlock(k)
			}
			<-entered
			g.Join()
			if shared != 2 {
				t.Errorf("shared = %d, want 2", shared)
			}
			if onTable(k1) {
				t.Error("the table entry is still held after every Unlock")
			}
			if d := rt.Stats().Delta(before); d.LockAcquires != uint64(len(tc.held)+1) {
				t.Errorf("LockAcquires grew by %d, want %d: each Lock once", d.LockAcquires, len(tc.held)+1)
			}
		}) {
			return // the table may be left held
		}
	}
	t.Run("live worker", func(t *testing.T) {
		g := rt.NewGroup()
		park := make(chan struct{})
		if !spawnOnce(g, func() { <-park }) {
			t.Fatal("Probe refused with a free pool")
		}
		before := rt.Stats()
		g.Lock(k1)
		if !onTable(k1) {
			t.Error("a Lock beside a live worker took no table entry")
		}
		g.Unlock(k1)
		if d := rt.Stats().Delta(before); d.LockAcquires != 1 {
			t.Errorf("a table Lock counted %d before Join, want 1", d.LockAcquires)
		}
		close(park)
		g.Join()
		// No live worker again: elided, and counted at the next Join.
		before = rt.Stats()
		g.Lock(k1)
		if onTable(k1) {
			t.Error("a Lock after Join took its table entry")
		}
		g.Unlock(k1)
		if d := rt.Stats().Delta(before); d.LockAcquires != 0 {
			t.Errorf("an elided Lock counted %d before Join, want 0", d.LockAcquires)
		}
		g.Join()
		if d := rt.Stats().Delta(before); d.LockAcquires != 1 {
			t.Errorf("an elided Lock counted %d after Join, want 1", d.LockAcquires)
		}
	})
	t.Run("set full", func(t *testing.T) {
		g := rt.NewGroup()
		for k := uint64(0); k <= maxHeld; k++ {
			g.Lock(k)
		}
		if !onTable(maxHeld) {
			t.Errorf("Lock number %d took no table entry past a set of %d", maxHeld+1, maxHeld)
		}
		for k := uint64(0); k <= maxHeld; k++ {
			g.Unlock(k)
		}
		if onTable(maxHeld) {
			t.Error("the table entry is still held after every Unlock")
		}
		g.Join()
	})
	rt.Close()
}
