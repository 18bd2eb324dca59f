package capwatch

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capserve"
	"repro/internal/capsule"
)

func newRuntime(t *testing.T, contexts int) *capsule.Runtime {
	t.Helper()
	rt, err := capsule.NewValidated(capsule.Config{Contexts: contexts, Throttle: true})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil Runtime")
	}
	rt := newRuntime(t, 2)
	if _, err := New(Config{Runtime: rt, Interval: -time.Second}); err == nil {
		t.Fatal("New accepted a negative interval")
	}
	if _, err := New(Config{Runtime: rt, SLO: SLOConfig{Availability: 1.5}}); err == nil {
		t.Fatal("New accepted Availability > 1")
	}
	if _, err := New(Config{Runtime: rt, SLO: SLOConfig{FastWindow: time.Hour, SlowWindow: time.Minute}}); err == nil {
		t.Fatal("New accepted fast window > slow window")
	}
}

func TestRingAutoSize(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{
		Runtime:  rt,
		Interval: time.Second,
		SLO:      SLOConfig{FastWindow: 5 * time.Minute, SlowWindow: time.Hour},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 3600 samples must be resident for the slow window to be judged.
	if s.RingSize() < 3600 {
		t.Fatalf("auto ring %d cannot hold the 1h slow window at a 1s tick", s.RingSize())
	}
	if s.RingSize() > maxRing {
		t.Fatalf("auto ring %d exceeds maxRing", s.RingSize())
	}
}

// TestRingWraparound storms SampleNow past several full ring
// revolutions while concurrent readers snapshot and roll up — the
// -race proof that slot reuse and reader copies cannot tear. The
// snapshots must always be time-ordered and bounded by the ring size.
func TestRingWraparound(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing, Interval: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const revolutions = 4
	total := revolutions * s.RingSize()

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				samples := s.Snapshot(0)
				if len(samples) > s.RingSize() {
					t.Errorf("Snapshot returned %d > ring %d", len(samples), s.RingSize())
					return
				}
				for i := 1; i < len(samples); i++ {
					if samples[i].TS < samples[i-1].TS {
						t.Errorf("snapshot %d out of order: %d < %d", i, samples[i].TS, samples[i-1].TS)
						return
					}
				}
				_ = s.Report(time.Second)
			}
		}()
	}
	for i := 0; i < total; i++ {
		s.SampleNow()
	}
	done.Store(true)
	wg.Wait()

	if got := s.Samples(); got != uint64(total) {
		t.Fatalf("Samples() = %d, want %d", got, total)
	}
	if got := len(s.Snapshot(0)); got != s.RingSize() {
		t.Fatalf("after wraparound Snapshot(0) returned %d, want full ring %d", got, s.RingSize())
	}
}

// TestDeltaMonotonicity checks the paper's accounting identity
// survives sampling: every snapshot taken during a live probe storm
// satisfies Probes == Granted + NoCtxDenies + ThrottleDenies, no counter
// runs backwards between consecutive snapshots, and so every sampled
// delta satisfies the same identity exactly.
func TestDeltaMonotonicity(t *testing.T) {
	rt := newRuntime(t, 4)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if c, ok := rt.Probe(); ok {
					rt.Release(c)
				}
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s.SampleNow()
		runtime.Gosched() // on one P the storm and the sampler take turns
	}
	done.Store(true)
	wg.Wait()

	samples := s.Snapshot(0)
	if len(samples) < 2 {
		t.Fatalf("want >= 2 samples, got %d", len(samples))
	}
	for i, smp := range samples {
		c := smp.Capsule
		if c.Probes != c.Granted+c.NoCtxDenies+c.ThrottleDenies {
			t.Fatalf("sample %d: Probes %d != outcomes %d+%d+%d", i, c.Probes, c.Granted, c.NoCtxDenies, c.ThrottleDenies)
		}
		if i == 0 {
			continue
		}
		p := samples[i-1].Capsule
		if c.Granted < p.Granted || c.NoCtxDenies < p.NoCtxDenies || c.ThrottleDenies < p.ThrottleDenies {
			t.Fatalf("sample %d: a counter ran backwards: %+v after %+v", i, c, p)
		}
		if d := c.Delta(p); d.Probes != d.Granted+d.NoCtxDenies+d.ThrottleDenies {
			t.Fatalf("sample %d: delta Probes %d != delta outcomes (%+v)", i, d.Probes, d)
		}
	}
	if last := samples[len(samples)-1].Capsule; last.Probes == 0 {
		t.Fatal("the storm made no probes")
	}
}

// TestSampleNowAllocs is the zero-alloc tick contract: after the first
// call warms the runtime/metrics buffers, a snapshot performs no
// allocations.
func TestSampleNowAllocs(t *testing.T) {
	rt := newRuntime(t, 4)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow() // warmup
	if n := testing.AllocsPerRun(100, s.SampleNow); n != 0 {
		t.Fatalf("SampleNow allocates %v per tick, want 0", n)
	}
}

// TestSamplerIsPureReader is the other half of the sampler's cost
// contract: ticking writes nothing the hot paths own. Once traffic has
// made the counters nonzero, any number of ticks (the ring wraps) leaves
// the runtime's and the server's counters bit-identical.
func TestSamplerIsPureReader(t *testing.T) {
	rt := newRuntime(t, 4)
	srv, err := capserve.New(capserve.Config{Runtime: rt})
	if err != nil {
		t.Fatalf("capserve.New: %v", err)
	}
	for _, url := range []string{"/run/quicksort?n=2000&seed=1", "/run/dijkstra?n=100&seed=2", "/run/quicksort?n=-1"} {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", url, nil))
	}
	rt.Join()
	s, err := New(Config{Runtime: rt, Server: srv, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Everything collect reads, read the way collect reads it.
	read := func() (c Sample) {
		c.Endpoints = make([]capserve.EndpointCounters, len(srv.Workloads()))
		c.Capsule, c.FreeContexts, c.QueueOccupancy = rt.Stats(), rt.FreeContexts(), srv.QueueOccupancy()
		srv.ReadEndpointCounters(c.Endpoints)
		return c
	}
	before, sheds := read(), srv.ShedCount()
	if before.Capsule.Probes == 0 || before.Capsule.LockAcquires == 0 {
		t.Fatalf("the warm-up traffic left the runtime's counters at zero: %+v", before.Capsule)
	}
	for i := 0; i < 3*minRing; i++ {
		s.SampleNow()
	}
	if after := read(); !reflect.DeepEqual(before, after) || srv.ShedCount() != sheds {
		t.Fatalf("%d sampler ticks moved the counters they read:\nbefore %+v\nafter  %+v", 3*minRing, before, after)
	}
}

func TestStartStop(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for s.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Samples() < 3 {
		t.Fatalf("armed sampler took %d samples in 2s, want >= 3", s.Samples())
	}
	s.Stop()
	s.Stop() // idempotent
	n := s.Samples()
	time.Sleep(20 * time.Millisecond)
	if got := s.Samples(); got != n {
		t.Fatalf("sampler still ticking after Stop: %d -> %d", n, got)
	}
}

func TestReportEmptyRing(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Report(0)
	if rep.WindowSamples != 0 || rep.Samples != 0 {
		t.Fatalf("empty ring report claims samples: %+v", rep)
	}
	if rep.Rates.Availability != 1 || rep.SLO.Fast.Availability != 1 {
		t.Fatalf("empty ring must report availability 1, got %g / %g",
			rep.Rates.Availability, rep.SLO.Fast.Availability)
	}
	if rep.SLO.BurnRate != 0 || rep.SLO.Exhausted {
		t.Fatalf("empty ring must not burn budget: %+v", rep.SLO)
	}
}

// TestHandlerShapes pins /debug/watch's query parsing and order: the
// window reaches every report, reports keep sampler order, and a bad
// window is a 400. (The array-per-topology shape is capdebug's TestPlane.)
func TestHandlerShapes(t *testing.T) {
	rt := newRuntime(t, 2)
	a, _ := New(Config{Runtime: rt, Ring: minRing, Source: "a"})
	b, _ := New(Config{Runtime: rt, Ring: minRing, Source: "b"})
	a.SampleNow()
	b.SampleNow()

	rec := httptest.NewRecorder()
	Handler(a, b).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch?window=10s", nil))
	var reps []Report
	if err := json.Unmarshal(rec.Body.Bytes(), &reps); err != nil {
		t.Fatalf("body is not a Report array: %v", err)
	}
	if len(reps) != 2 || reps[0].Source != "a" || reps[1].Source != "b" || reps[1].WindowS != 10 {
		t.Fatalf("reports = %+v, want [a b] over a 10s window", reps)
	}

	// Bad window: 400.
	rec = httptest.NewRecorder()
	Handler(a).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch?window=yes", nil))
	if rec.Code != 400 {
		t.Fatalf("bad window returned %d, want 400", rec.Code)
	}
}

func TestWriteMetrics(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow()
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"capwatch_samples_total 1",
		`capwatch_slo_burn_rate{window="fast",slo="availability"}`,
		`capwatch_slo_burn_rate{window="slow",slo="latency"}`,
		"capwatch_slo_budget_exhausted 0",
		"capwatch_go_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestZeroWidthWindowClamp is the regression test for sub-tick rollup
// windows: two snapshots taken microseconds apart used to divide the
// counter deltas by the near-zero elapsed span, inflating rates toward
// Inf. Rates must now divide by at least one tick, with the effective
// divisor surfaced as window_clamped_s.
func TestZeroWidthWindowClamp(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Interval: time.Second, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow()
	const probes = 100
	for i := 0; i < probes; i++ {
		if c, ok := rt.Probe(); ok {
			rt.Release(c)
		}
	}
	s.SampleNow() // microseconds after the first

	// A ?window= smaller than one tick must clamp, not divide by ~0.
	rep := s.Report(time.Millisecond)
	if rep.WindowClampedS < s.Interval().Seconds() {
		t.Fatalf("window_clamped_s = %g, want >= the %gs tick", rep.WindowClampedS, s.Interval().Seconds())
	}
	if rep.Rates.ProbesPerSec > probes+1 {
		t.Fatalf("probes_per_s = %g for %d probes over a clamped 1s window — the divisor was not clamped", rep.Rates.ProbesPerSec, probes)
	}
	// The delta reconstructs exactly from the effective divisor.
	if got := rep.Rates.ProbesPerSec * rep.WindowClampedS; got < probes-1 || got > probes+1 {
		t.Fatalf("rate %g x clamp %g = %g, want ~%d", rep.Rates.ProbesPerSec, rep.WindowClampedS, got, probes)
	}
	for name, v := range map[string]float64{
		"probes_per_s":   rep.Rates.ProbesPerSec,
		"grants_per_s":   rep.Rates.GrantsPerSec,
		"requests_per_s": rep.Rates.RequestsPerSec,
		"errors_per_s":   rep.Rates.ErrorsPerSec,
	} {
		if !finite(v) || v < 0 {
			t.Fatalf("%s = %g not finite/non-negative under a zero-width window", name, v)
		}
	}

	// A window wider than the covered span but >= one tick is honest:
	// no clamp marker.
	wide := s.Report(time.Minute)
	if wide.WindowClampedS != 0 && wide.WindowActualS >= s.Interval().Seconds() {
		t.Fatalf("wide window marked clamped: %+v", wide.WindowClampedS)
	}
}

// TestOnSampleHook pins the capscope attachment point: the hook runs
// once per published snapshot, outside the ring lock (it can read the
// ring back), and uninstalls cleanly.
func TestOnSampleHook(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var calls atomic.Int32
	s.OnSample(func() {
		calls.Add(1)
		// Reading the ring from the hook must not deadlock.
		if slo := s.SLO(); slo.TargetP99MS <= 0 {
			t.Errorf("SLO from hook: %+v", slo)
		}
		_ = s.Report(0)
	})
	s.SampleNow()
	s.SampleNow()
	if got := calls.Load(); got != 2 {
		t.Fatalf("hook ran %d times for 2 snapshots", got)
	}
	s.OnSample(nil)
	s.SampleNow()
	if got := calls.Load(); got != 2 {
		t.Fatalf("uninstalled hook still ran (%d calls)", got)
	}
}

// TestIncidentsPlumbing: a registered supplier shows up in Report and
// survives round-tripping through the handler shapes.
func TestIncidentsPlumbing(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow()
	if got := s.Report(0).Incidents; got != 0 {
		t.Fatalf("unregistered incidents = %d", got)
	}
	s.SetIncidents(func() uint64 { return 7 })
	if got := s.Report(0).Incidents; got != 7 {
		t.Fatalf("incidents = %d, want 7", got)
	}
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch", nil))
	var reps []Report
	if err := json.Unmarshal(rec.Body.Bytes(), &reps); err != nil || len(reps) != 1 {
		t.Fatalf("decode: %v", err)
	}
	if reps[0].Incidents != 7 {
		t.Fatalf("handler incidents = %d, want 7", reps[0].Incidents)
	}
	s.SetIncidents(nil)
	if got := s.Report(0).Incidents; got != 0 {
		t.Fatalf("unregistered again, incidents = %d", got)
	}
}

// FuzzHandlerWindow: any ?window= gets a 400 or a JSON array with one
// report per sampler — never a panic.
func FuzzHandlerWindow(f *testing.F) {
	for _, w := range []string{"", "30s", "1m", "0", "-5s", "yes", "9999999999h"} {
		f.Add(w)
	}
	rt, err := capsule.NewValidated(capsule.Config{Contexts: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	s, _ := New(Config{Runtime: rt, Ring: minRing, Source: "lead"})
	s.SampleNow()
	h := Handler(s)
	f.Fuzz(func(t *testing.T, window string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/watch?"+url.Values{"window": {window}}.Encode(), nil))
		if w.Code == http.StatusBadRequest {
			return
		}
		var reps []Report
		if err := json.Unmarshal(w.Body.Bytes(), &reps); w.Code != http.StatusOK || err != nil || len(reps) != 1 || reps[0].Source != "lead" {
			t.Fatalf("?window=%q: status %d, body %q (%v)", window, w.Code, w.Body.Bytes(), err)
		}
	})
}
