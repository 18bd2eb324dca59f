package capsule

// Ungated benchmarks, for profiling, of the refused offer and the lock
// as a running workload meets them: another request is on the runtime at
// the same time. Their cost is `go run ./benchmark`'s to compare
// (native_fine, native_coarse), their allocations TestHotPathZeroAllocs';
// CI runs these once under -race.

import (
	"sync"
	"testing"
)

// twoCallers runs b.N calls of op on each of two goroutines at once:
// ns/op is one caller's mean while the other is running.
func twoCallers(b *testing.B, op func(caller, i int)) {
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for caller := 0; caller < 2; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				op(caller, i)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkGroupProbeRefused2Groups is the refused offer of a served
// request: two requests, a Group each, one exhausted runtime, every
// probe refused.
func BenchmarkGroupProbeRefused2Groups(b *testing.B) {
	rt := New(Config{Contexts: 1, Throttle: true})
	defer rt.Close()
	hold, _ := rt.Probe()
	defer rt.Release(hold)
	groups := [2]*Group{rt.NewGroup(), rt.NewGroup()}
	twoCallers(b, func(caller, _ int) {
		if _, ok := groups[caller].Probe(); ok {
			b.Error("probe granted from an empty pool")
		}
	})
	for _, g := range groups {
		g.Join()
	}
}

// BenchmarkLockUnlock2Callers is the lock table as two concurrent
// dijkstra requests use it: both walk the same 64 node ids.
func BenchmarkLockUnlock2Callers(b *testing.B) {
	rt := New(Config{Contexts: 1})
	defer rt.Close()
	twoCallers(b, func(_, i int) {
		key := uint64(i & 63)
		rt.lock(key)
		rt.unlock(key)
	})
}

// BenchmarkGroupLockUnlock is one request's lock as its owner takes it:
// elided while the group has no live worker, on the table while one is
// live (parked here on a channel).
func BenchmarkGroupLockUnlock(b *testing.B) {
	run := func(b *testing.B, g *Group) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := uint64(i & 63)
			g.Lock(key)
			g.Unlock(key)
		}
	}
	b.Run("elided", func(b *testing.B) {
		rt := New(Config{Contexts: 1})
		defer rt.Close()
		g := rt.NewGroup()
		run(b, g)
		g.Join()
	})
	b.Run("table", func(b *testing.B) {
		rt := New(Config{Contexts: 1})
		defer rt.Close()
		g := rt.NewGroup()
		park := make(chan struct{})
		c, ok := g.Probe()
		if !ok {
			b.Fatal("probe refused with a free pool")
		}
		g.Spawn(c, func() { <-park })
		run(b, g)
		close(park)
		g.Join()
	})
}
