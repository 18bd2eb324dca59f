// Package hotpath is the probe/divide micro-benchmark suite for the live
// runtime (internal/capsule): the "atomic/..." cases cover the grant and
// refusal paths serially and at 1×, 4× and 16× GOMAXPROCS probers, the
// fused divide with worker hand-off, and the states a workload runs in
// but a quiet runtime never visits (a refusal after a death, two
// requests refused at once, two requests in the lock table at once); the
// "trace/...", "watch/..." and "incident/..." families re-run the
// canonical paths with each observability plane off and armed. The same
// bodies back both `go test -bench` (hotpath_test.go wrappers, run under
// -race in CI) and cmd/capstress, which runs them via testing.Benchmark
// and records ns/op and allocs/op in BENCH_capsule.json, where
// scripts/bench_gate.py holds the allocation ceilings and the
// armed-vs-off overhead budgets. What a probe or a division costs end to
// end is `go run ./benchmark`'s job (native_fine, native_coarse), not
// this package's.
package hotpath

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/capscope"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// A Case is one named hot-path benchmark, runnable by go test or
// testing.Benchmark.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Cases returns the full suite. Names are family/path[_probers][_state].
// The "atomic/..." keys are the overhead families' twins (the gates pin
// each family's off case to them), so they stay stable across PRs.
func Cases() []Case {
	cases := []Case{
		{"atomic/probe_granted_serial", atomicProbeGranted(0)},
		{"atomic/probe_granted_parallel_1x", atomicProbeGranted(1)},
		{"atomic/probe_granted_parallel_4x", atomicProbeGranted(4)},
		{"atomic/probe_granted_parallel_16x", atomicProbeGranted(16)},
		{"atomic/probe_refused_serial", atomicProbeRefused(0)},
		{"atomic/probe_refused_parallel_4x", atomicProbeRefused(4)},
		{"atomic/try_divide_refused", atomicTryDivideRefused},
		{"atomic/divide_granted", atomicDivideGranted},
		{"atomic/probe_refused_after_death", atomicProbeRefusedAfterDeath},
		{"atomic/group_divide_refused_2groups", atomicGroupDivideRefused2Groups},
		{"atomic/lock_unlock_2callers", atomicLockUnlock2Callers},
	}
	for _, tm := range []struct {
		suffix string
		mode   traceMode
	}{{"_off", traceOff}, {"_armed", traceArmed}, {"_traced", traceTraced}} {
		cases = append(cases,
			Case{"trace/probe_granted_serial" + tm.suffix, traceProbeGranted(0, tm.mode)},
			Case{"trace/probe_granted_parallel_4x" + tm.suffix, traceProbeGranted(4, tm.mode)},
			Case{"trace/divide_granted" + tm.suffix, traceDivideGranted(tm.mode)},
		)
	}
	for _, armed := range []bool{false, true} {
		suffix := "_off"
		if armed {
			suffix = "_armed"
		}
		cases = append(cases,
			Case{"watch/probe_granted_serial" + suffix, watchProbeGranted(0, armed)},
			Case{"watch/probe_granted_parallel_4x" + suffix, watchProbeGranted(4, armed)},
			Case{"watch/divide_granted" + suffix, watchDivideGranted(armed)},
		)
	}
	for _, armed := range []bool{false, true} {
		suffix := "_off"
		if armed {
			suffix = "_armed"
		}
		cases = append(cases,
			Case{"incident/probe_granted_serial" + suffix, incidentProbeGranted(0, armed)},
			Case{"incident/probe_granted_parallel_4x" + suffix, incidentProbeGranted(4, armed)},
			Case{"incident/divide_granted" + suffix, incidentDivideGranted(armed)},
		)
	}
	return cases
}

// Find returns the named case for a go test wrapper.
func Find(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// nop is the spawned work: a static func value, so the divide benchmarks
// measure the runtime's own cost, not a per-iteration closure allocation.
func nop() {}

// benchWindow is the throttle window of every probe case. The probe
// benchmarks never record deaths (Probe/Release is not a kthr), so the
// throttle check is measured on its always-quiescent fast path.
const benchWindow = 100 * time.Microsecond

// probers turns a parallelism multiplier into the number of concurrent
// probers RunParallel will use (0 means a plain serial loop).
func probers(par int) int {
	if par == 0 {
		return 1
	}
	return par * runtime.GOMAXPROCS(0)
}

// divideContexts sizes the divide_granted pool: deep enough that the
// offering loop keeps granting while parked workers drain and refill it.
func divideContexts() int {
	n := 16 * runtime.GOMAXPROCS(0)
	if n < 64 {
		n = 64
	}
	return n
}

// ---- atomic: the live lock-free runtime ----

// atomicProbeGranted builds the granted-probe case at par×GOMAXPROCS
// probers (0 = serial) on a pool of one context per prober.
func atomicProbeGranted(par int) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: probers(par), Throttle: true, DeathWindow: benchWindow})
		defer rt.Close()
		probeRelease(b, rt, par, 0)
	}
}

// probeRelease is the timed body every granted-probe case shares: a
// Probe+Release loop on rt, serial (par 0) or from par×GOMAXPROCS
// probers, under trace ID tid (0 is exactly Probe). One body, so a
// family's off case and its atomic twin differ only in what is armed
// beside the runtime.
func probeRelease(b *testing.B, rt *capsule.Runtime, par int, tid uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	if par == 0 {
		for i := 0; i < b.N; i++ {
			if c, ok := rt.ProbeTraced(tid); ok {
				rt.Release(c)
			}
		}
		return
	}
	b.SetParallelism(par)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if c, ok := rt.ProbeTraced(tid); ok {
				rt.Release(c)
			}
		}
	})
}

func atomicProbeRefused(par int) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: 1, Throttle: true, DeathWindow: benchWindow})
		hold, _ := rt.Probe() // empty the pool: every probe refuses
		b.ReportAllocs()
		b.ResetTimer()
		if par == 0 {
			for i := 0; i < b.N; i++ {
				if _, ok := rt.Probe(); ok {
					b.Fatal("probe granted from an empty pool")
				}
			}
		} else {
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, ok := rt.Probe(); ok {
						b.Fatal("probe granted from an empty pool")
					}
				}
			})
		}
		b.StopTimer()
		rt.Release(hold)
		rt.Close()
	}
}

func atomicTryDivideRefused(b *testing.B) {
	rt := capsule.New(capsule.Config{Contexts: 1, Throttle: false})
	hold, _ := rt.Probe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rt.TryDivide(nop) {
			b.Fatal("divide granted from an empty pool")
		}
	}
	b.StopTimer()
	rt.Release(hold)
	rt.Close()
}

func atomicDivideGranted(b *testing.B) {
	// Throttle off: nop workers die far faster than any real window, and
	// the point here is the grant + hand-off cost, not throttle stalls.
	rt := capsule.New(capsule.Config{Contexts: divideContexts(), Throttle: false})
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !rt.TryDivide(nop) {
			runtime.Gosched() // let parked workers drain and refill the pool
		}
	}
	b.StopTimer()
	rt.Join()
}

// The three cases below are the refused offer and the lock as a running
// workload meets them, not as the quiet cases above do: something has
// died, and another request is on the runtime at the same time. They
// are gated on allocations only; their timings at two Ps are noise-bound.

// atomicProbeRefusedAfterDeath is probe_refused_serial on a runtime that
// has lived: throttle on, one death in the ring, its window long
// expired, and the token that death freed taken again.
func atomicProbeRefusedAfterDeath(b *testing.B) {
	rt := capsule.New(capsule.Config{Contexts: 1, Throttle: true, DeathWindow: benchWindow})
	rt.Divide(nop)
	rt.Join()
	time.Sleep(10 * benchWindow)
	hold, ok := rt.Probe()
	if !ok {
		b.Fatal("probe refused after the death window expired")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rt.Probe(); ok {
			b.Fatal("probe granted from an empty pool")
		}
	}
	b.StopTimer()
	rt.Release(hold)
	rt.Close()
}

// twoCallers runs b.N calls of each op on its own goroutine, both at
// once: ns/op is one caller's mean while the other is running.
func twoCallers(b *testing.B, ops [2]func(i int)) {
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

// atomicGroupDivideRefused2Groups is the refused offer of a served
// request: two requests, a Group each, one exhausted runtime, every
// Divide refused and run inline.
func atomicGroupDivideRefused2Groups(b *testing.B) {
	rt := capsule.New(capsule.Config{Contexts: 1, Throttle: true, DeathWindow: benchWindow})
	hold, _ := rt.Probe()
	var groups [2]*capsule.Group
	var ops [2]func(int)
	for c := range ops {
		g := rt.NewGroup()
		groups[c] = g
		ops[c] = func(int) {
			if g.Divide(nop) {
				b.Error("divide granted from an empty pool")
			}
		}
	}
	twoCallers(b, ops)
	for _, g := range groups {
		g.Join()
	}
	rt.Release(hold)
	rt.Close()
}

// atomicLockUnlock2Callers is the lock table as two concurrent dijkstra
// requests use it: both walk the same 64 node ids.
func atomicLockUnlock2Callers(b *testing.B) {
	rt := capsule.New(capsule.Config{Contexts: 1})
	defer rt.Close()
	op := func(i int) {
		key := uint64(i & 63)
		rt.Lock(key)
		rt.Unlock(key)
	}
	twoCallers(b, [2]func(int){op, op})
}

// ---- trace: captrace overhead on the canonical hot paths ----
//
// Each path is measured in the three states the serving tiers put the
// runtime in:
//
//   - off:    Config.Tracer == nil — tracing disabled, the tracked
//     "atomic/..." configuration;
//   - armed:  tracer installed, request unsampled (trace ID 0) — the
//     state every request is in when -trace is on, since per-request
//     events are gated on a nonzero ID;
//   - traced: tracer installed, nonzero trace ID — the sampled
//     request's full cost: a 32-byte ring write per probe outcome, plus
//     the handoff and death events for a granted divide.
//
// cmd/capstress folds each off/armed/traced triple into the report's
// trace_overhead section, where CI budgets the armed overhead at ≤5%
// and pins the off cases to their atomic twins (the disabled ~0%
// check). All three states share one builder, so the only variable is
// the tracer/ID wiring under test.

// benchTID is the fixed trace identity the traced cases record under.
const benchTID = 0x00c0ffee00c0ffee

type traceMode int

const (
	traceOff traceMode = iota
	traceArmed
	traceTraced
)

func (m traceMode) tracer() *captrace.Tracer {
	if m == traceOff {
		return nil
	}
	return captrace.New(0, 0)
}

func (m traceMode) tid() uint64 {
	if m == traceTraced {
		return benchTID
	}
	return 0
}

// traceProbeGranted mirrors atomicProbeGranted (same sizing) with the
// mode's tracer and trace ID, so off and armed measure the identical
// call.
func traceProbeGranted(par int, m traceMode) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: probers(par), Throttle: true, DeathWindow: benchWindow, Tracer: m.tracer()})
		defer rt.Close()
		probeRelease(b, rt, par, m.tid())
	}
}

// traceDivideGranted is atomicDivideGranted through a Group (the
// serving tiers' divide scope), so the traced mode exercises the whole
// per-division event chain: grant, worker handoff, death.
func traceDivideGranted(m traceMode) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: divideContexts(), Throttle: false, Tracer: m.tracer()})
		defer rt.Close()
		g := rt.NewGroupTraced(m.tid())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !g.TryDivide(nop) {
				runtime.Gosched()
			}
		}
		b.StopTimer()
		g.Join()
	}
}

// ---- watch: capwatch sampler overhead on the canonical hot paths ----
//
// The capwatch sampler is a pure reader: the probe/divide hot paths
// never touch it, so an armed sampler's only cost to them is the cache
// traffic of its once-per-tick read of the counters. Each
// path is measured with an inert 1s ticker (off) and with a sampler
// armed at the production DefaultInterval tick. The off case carries
// the ticker as an experimental control: on a single-P runtime, any
// pending timer taxes every pass through the scheduler — which the
// divide hand-off takes once per op — and a bare time.Ticker alone
// measures +15% on divide_granted at GOMAXPROCS=1. Every real
// deployment already owns such timers (HTTP server deadlines, the
// breaker windows), so the pair deliberately prices the sampler's own
// work, not the runtime's timer tax. cmd/capstress folds the pairs
// into the report's watch_overhead section, where CI budgets the armed
// overhead at ≤2% on the probe paths (≤5% on divide, whose
// scheduler-bound hand-off has a ±3% pair-noise floor) and separately
// pins the off case against the ticker-free atomic twins.

// watchSampler arms a live sampler over rt at the production tick, or —
// for the off control — an inert ticker at the same period. The
// returned stop func is the benchmark teardown.
func watchSampler(rt *capsule.Runtime, armed bool) (stop func()) {
	if !armed {
		t := time.NewTicker(capwatch.DefaultInterval)
		done := make(chan struct{})
		go func() {
			for {
				select {
				case <-t.C:
				case <-done:
					return
				}
			}
		}()
		return func() {
			t.Stop()
			close(done)
		}
	}
	s, err := capwatch.New(capwatch.Config{Runtime: rt})
	if err != nil {
		panic(err)
	}
	s.Start()
	return s.Stop
}

// watchProbeGranted mirrors atomicProbeGranted (same sizing) with a
// capwatch sampler ticking beside it.
func watchProbeGranted(par int, armed bool) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: probers(par), Throttle: true, DeathWindow: benchWindow})
		defer rt.Close()
		stop := watchSampler(rt, armed)
		defer stop()
		probeRelease(b, rt, par, 0)
	}
}

// watchDivideGranted is atomicDivideGranted with a sampler armed.
func watchDivideGranted(armed bool) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: divideContexts(), Throttle: false})
		defer rt.Close()
		stop := watchSampler(rt, armed)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !rt.TryDivide(nop) {
				runtime.Gosched()
			}
		}
		b.StopTimer()
		rt.Join()
	}
}

// ---- incident: capscope recorder overhead on the canonical hot paths ----
//
// The capscope recorder never touches the probe/divide hot paths
// either: disarmed it does not exist to them, and armed its entire
// cost rides the capwatch sampling tick (one atomic hook load in
// SampleNow plus a per-tick sweep of counters the writers already
// maintain). Both states of each twin therefore carry a live sampler
// at the production tick — the off case is exactly the watch armed
// case — so the pair isolates what *arming the recorder* adds on top
// of telemetry that is already on, not the sampler's own cost (that is
// the watch family's job). The recorder's triggers cannot fire here:
// no deaths (throttle quiescent), no server (no sheds, empty SLO
// windows), no router. cmd/capstress folds the pairs into the report's
// incident_overhead section, where CI budgets the armed overhead at
// ≤2% on the probe paths and ≤5% on divide, the same ceilings as
// watch.

// incidentRecorder arms a live sampler over rt and, when armed, an
// incident recorder riding its tick with triggers that never fire.
// The returned stop func is the benchmark teardown.
func incidentRecorder(b *testing.B, rt *capsule.Runtime, armed bool) (stop func()) {
	s, err := capwatch.New(capwatch.Config{Runtime: rt})
	if err != nil {
		panic(err)
	}
	if !armed {
		s.Start()
		return s.Stop
	}
	dir, err := os.MkdirTemp("", "capscope-bench-")
	if err != nil {
		b.Fatal(err)
	}
	rec, err := capscope.New(capscope.Config{
		Dir:             dir,
		Runtime:         rt,
		ProfileDuration: -1,        // a capture here would be a bug, but never burn CPU for it
		Cooldown:        time.Hour, // and never twice
	})
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	rec.Arm(s)
	s.Start()
	return func() {
		s.Stop()
		rec.Close()
		os.RemoveAll(dir)
	}
}

// incidentProbeGranted mirrors watchProbeGranted(armed) with the
// recorder armed on top.
func incidentProbeGranted(par int, armed bool) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: probers(par), Throttle: true, DeathWindow: benchWindow})
		defer rt.Close()
		stop := incidentRecorder(b, rt, armed)
		defer stop()
		probeRelease(b, rt, par, 0)
	}
}

// incidentDivideGranted is watchDivideGranted(armed) with the recorder
// armed on top.
func incidentDivideGranted(armed bool) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: divideContexts(), Throttle: false})
		defer rt.Close()
		stop := incidentRecorder(b, rt, armed)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !rt.TryDivide(nop) {
				runtime.Gosched()
			}
		}
		b.StopTimer()
		rt.Join()
	}
}
