package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capsule"
	"repro/internal/workloads"
)

func newRuntime(contexts int) *capsule.Runtime {
	return capsule.New(capsule.Config{Contexts: contexts, Throttle: true})
}

// expected computes every pool entry's checksum on the Sequential
// domain. It runs inside set-up, so its cost is charged to setup_s.
func expected(pool []request, contexts int) ([]uint64, error) {
	rt := newRuntime(contexts)
	defer rt.Close()
	want := make([]uint64, len(pool))
	for i, rq := range pool {
		res, err := workloads.RunRequest(rt.Sequential(), rq.Workload, rq.N, rq.Seed)
		if err != nil {
			return nil, fmt.Errorf("expected checksum of %v: %w", rq, err)
		}
		want[i] = res.Checksum
	}
	return want, nil
}

// nativeTarget runs requests in process on one shared runtime.
type nativeTarget struct {
	rt   *capsule.Runtime
	pool []request
	want []uint64
	rec  *recorder
	// alternate switches between a Group and the Sequential domain every
	// slice, for speedup_vs_sequential. Both halves of a traced run do it,
	// so that trace.overhead_ratio compares like with like; an untraced
	// run measures the Group path alone.
	alternate bool
	start     time.Time
}

const coarseSlice = time.Second

func (t *nativeTarget) exec(rid uint32, idx int32) opResult {
	rq := t.pool[idx]
	seq := t.alternate && (time.Since(t.start)/coarseSlice)%2 == 1
	var dom capsule.Domain
	if seq {
		dom = t.rt.Sequential()
	} else {
		dom = t.rt.NewGroup()
	}
	if t.rec == nil {
		res, err := workloads.RunRequest(dom, rq.Workload, rq.N, rq.Seed)
		if err != nil {
			return opResult{err: err}
		}
		return opResult{wrong: res.Checksum != t.want[idx], elapsedNS: res.ElapsedNS, seq: seq}
	}
	td := &tracedDomain{Domain: dom}
	start := t.rec.now()
	res, err := workloads.RunRequest(td, rq.Workload, rq.N, rq.Seed)
	end := t.rec.now()
	if err != nil {
		return opResult{err: err}
	}
	t.rec.add(kRunRequest, rid, start, end)
	t.rec.addDuration(kWorkload, rid, res.ElapsedNS)
	t.rec.addDuration(kJoinWait, rid, td.joinNS.Load())
	t.rec.addDuration(kLockWait, rid, td.lockNS.Load())
	return opResult{wrong: res.Checksum != t.want[idx], elapsedNS: res.ElapsedNS, seq: seq}
}

func (t *nativeTarget) counters() map[string]float64 { return capsuleCounters(t.rt.Stats()) }

func (t *nativeTarget) close() { t.rt.Close() }

func capsuleCounters(stats ...capsule.Stats) map[string]float64 {
	c := map[string]float64{}
	for _, s := range stats {
		c["capsule.probes"] += float64(s.Probes)
		c["capsule.granted"] += float64(s.Granted)
		c["capsule.noctx_denies"] += float64(s.NoCtxDenies)
		c["capsule.throttle_denies"] += float64(s.ThrottleDenies)
		c["capsule.inline_runs"] += float64(s.InlineRuns)
		c["capsule.lock_acquires"] += float64(s.LockAcquires)
	}
	return c
}

// tracedDomain is the benchmark-side Domain wrapper of the traced
// window: it times the two calls a component can block in. Lock waits
// add up over the request's workers, so their sum can exceed the op.
type tracedDomain struct {
	capsule.Domain
	joinNS, lockNS atomic.Int64
}

func (d *tracedDomain) Join() {
	start := time.Now()
	d.Domain.Join()
	d.joinNS.Add(int64(time.Since(start)))
}

func (d *tracedDomain) Lock(key uint64) {
	start := time.Now()
	d.Domain.Lock(key)
	d.lockNS.Add(int64(time.Since(start)))
}

func (r *runner) nativeBuild(alternate bool) func(*plan, []uint64, *recorder) (target, error) {
	return func(pl *plan, want []uint64, rec *recorder) (target, error) {
		return &nativeTarget{
			rt: newRuntime(r.P), pool: pl.Pool, want: want, rec: rec,
			alternate: alternate && r.traced, start: time.Now(),
		}, nil
	}
}

func runNativeCoarse(r *runner) error {
	return r.runTimed(timedSpec{
		setUp: r.mixSetUp(coarseMix, 0, r.nativeBuild(true)), clients: 1, root: kOp,
		extra: func(r *runner, w *window) error {
			// One caller, closed loop: a domain's time is the sum of
			// its ops' latencies.
			var n [2]int
			var t [2]time.Duration
			for _, x := range w.samples {
				if x.ok {
					i := 0
					if x.seq {
						i = 1
					}
					n[i]++
					t[i] += x.lat
				}
			}
			if n[0] == 0 || n[1] == 0 {
				return fmt.Errorf("a domain got no slice (%d group ops, %d sequential)", n[0], n[1])
			}
			r.layer["capsule.speedup_vs_sequential"] =
				(float64(n[0]) / t[0].Seconds()) / (float64(n[1]) / t[1].Seconds())
			return r.nativeRows()
		},
	})
}

func runNativeFine(r *runner) error {
	return r.runTimed(timedSpec{
		setUp: r.mixSetUp(fineMix, 0, r.nativeBuild(false)), clients: r.P, root: kOp,
		extra: func(r *runner, _ *window) error { return r.nativeRows() },
	})
}

// nativeRows adds what is measured on a quiet runtime after the traced
// window: the capsule price list and the sequential reference ops.
func (r *runner) nativeRows() error {
	for name, v := range priceList(r.P) {
		r.layer[name] = v
	}
	rt := newRuntime(r.P)
	defer rt.Close()
	for wl, n := range seqRefN {
		var took []float64
		for i := 0; i < 21; i++ {
			res, err := workloads.RunRequest(rt.Sequential(), wl, n, r.seed+int64(i))
			if err != nil {
				return err
			}
			took = append(took, float64(res.ElapsedNS)/1e6)
		}
		r.layer["workloads.seq_ms_per_op."+wl] = median(took)
	}
	return nil
}

const (
	priceIters   = 100_000
	priceBatches = 5
)

// priceList times capsule's public calls on a quiet runtime: the median
// over batches of the mean ns per call, and mallocs per call. "par" rows
// run the same loop on P goroutines at once and report one goroutine's
// mean. A granted probe is priced with the Release that returns its
// token; a granted divide with the Join that waits for the empty worker.
func priceList(P int) map[string]float64 {
	out := map[string]float64{}
	price := func(name string, goroutines int, setup func(*capsule.Runtime) (teardown func()), call func(*capsule.Runtime)) {
		// Unthrottled: with the death-rate throttle on, a loop of empty
		// divisions refuses itself and would price the inline path.
		rt := capsule.New(capsule.Config{Contexts: P})
		defer rt.Close()
		teardown := setup(rt)
		var ns, allocs []float64
		for b := 0; b < priceBatches; b++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < priceIters; i++ {
						call(rt)
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			ns = append(ns, float64(elapsed.Nanoseconds())/priceIters)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(priceIters*goroutines))
		}
		teardown()
		out["capsule."+name+"_ns"] = median(ns)
		out["capsule."+name+"_allocs"] = median(allocs)
	}
	nothing := func(*capsule.Runtime) func() { return func() {} }
	// exhaust takes every context so that each probe is refused.
	exhaust := func(rt *capsule.Runtime) func() {
		var held []*capsule.Context
		for {
			c, ok := rt.Probe()
			if !ok {
				break
			}
			held = append(held, c)
		}
		return func() {
			for _, c := range held {
				rt.Release(c)
			}
		}
	}
	granted := func(rt *capsule.Runtime) {
		if c, ok := rt.Probe(); ok {
			rt.Release(c)
		}
	}
	refused := func(rt *capsule.Runtime) { rt.Probe() }
	empty := func() {}

	price("probe_granted", 1, nothing, granted)
	price("probe_granted.par", P, nothing, granted)
	price("probe_refused", 1, exhaust, refused)
	price("probe_refused.par", P, exhaust, refused)
	price("try_divide_refused", 1, exhaust, func(rt *capsule.Runtime) { rt.TryDivide(empty) })
	price("divide_granted", 1, nothing, func(rt *capsule.Runtime) { rt.Divide(empty); rt.Join() })
	return out
}
