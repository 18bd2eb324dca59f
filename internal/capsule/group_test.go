package capsule

import (
	"sync"
	"sync/atomic"
	"testing"
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
