package capscope

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// newThrottledRuntime builds a runtime whose death-rate throttle trips
// on the first worker death and stays tripped for an hour — so every
// subsequent TryDivide is a throttle deny, giving tests a sustained
// trigger condition they can produce on demand.
func newThrottledRuntime(t *testing.T) *capsule.Runtime {
	t.Helper()
	rt, err := capsule.NewValidated(capsule.Config{
		Contexts:       2,
		Throttle:       true,
		DeathWindow:    time.Hour,
		DeathThreshold: 1,
	})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func tripThrottle(t *testing.T, rt *capsule.Runtime) {
	t.Helper()
	for i := 0; i < 4; i++ {
		rt.TryDivide(func() {})
	}
	rt.Join()
	deadline := time.Now().Add(2 * time.Second)
	for rt.Stats().ThrottleDenies == 0 {
		rt.TryDivide(func() {})
		if time.Now().After(deadline) {
			t.Fatalf("throttle did not trip: %+v", rt.Stats())
		}
	}
}

// testRecorder wires a recorder to a manually-ticked sampler with a
// fake clock and CPU profiling disabled (captures land synchronously
// via wg.Wait, and cooldowns are driven by the clock, not sleeps).
func testRecorder(t *testing.T, rt *capsule.Runtime, cfg Config) (*Recorder, *capwatch.Sampler, *time.Time) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	cfg.Runtime = rt
	if cfg.ProfileDuration == 0 {
		cfg.ProfileDuration = -1
	}
	s, err := capwatch.New(capwatch.Config{Runtime: rt, Interval: 50 * time.Millisecond, Source: "test"})
	if err != nil {
		t.Fatalf("sampler: %v", err)
	}
	rec, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clock := time.Now()
	rec.now = func() time.Time { return clock }
	rec.Arm(s)
	t.Cleanup(rec.Close)
	return rec, s, &clock
}

func TestNewValidates(t *testing.T) {
	rt := newThrottledRuntime(t)
	if _, err := New(Config{Runtime: rt}); err == nil {
		t.Error("New accepted an empty Dir")
	}
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Error("New accepted a nil Runtime")
	}
	if _, err := New(Config{Dir: t.TempDir(), Runtime: rt, Cooldown: -time.Second}); err == nil {
		t.Error("New accepted a negative cooldown")
	}
}

// TestArmDoesNotFireOnHistory: counters that were already nonzero when
// the recorder armed must not produce a bundle — the first tick primes.
func TestArmDoesNotFireOnHistory(t *testing.T) {
	rt := newThrottledRuntime(t)
	tripThrottle(t, rt) // denies exist before arming
	rec, s, clock := testRecorder(t, rt, Config{})
	s.SampleNow() // prime
	*clock = clock.Add(time.Second)
	s.SampleNow() // no new denies since prime
	rec.wg.Wait()
	if got := len(LoadManifests(rec.Dir())); got != 0 {
		t.Fatalf("armed recorder fired on pre-existing counters: %d bundles", got)
	}
	if rec.Incidents() != 0 {
		t.Fatalf("incidents = %d, want 0", rec.Incidents())
	}
}

// TestDebounce is the acceptance-criteria test: a sustained trigger
// condition yields one bundle per cooldown, not one per tick.
func TestDebounce(t *testing.T) {
	rt := newThrottledRuntime(t)
	rec, s, clock := testRecorder(t, rt, Config{Cooldown: time.Minute})
	tripThrottle(t, rt)
	s.SampleNow() // prime tick

	// 20 ticks of sustained throttle denies inside one cooldown.
	for i := 0; i < 20; i++ {
		rt.TryDivide(func() {}) // denied: the condition holds every tick
		*clock = clock.Add(time.Second)
		s.SampleNow()
	}
	rec.wg.Wait()
	if got := rec.Incidents(); got != 1 {
		t.Fatalf("sustained burn inside one cooldown: %d bundles, want exactly 1", got)
	}

	// Crossing the cooldown boundary allows exactly one more.
	*clock = clock.Add(2 * time.Minute)
	rt.TryDivide(func() {})
	s.SampleNow()
	rec.wg.Wait()
	if got := rec.Incidents(); got != 2 {
		t.Fatalf("after cooldown expiry: %d bundles, want 2", got)
	}
	ms := LoadManifests(rec.Dir())
	if len(ms) != 2 {
		t.Fatalf("resident bundles = %d, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Trigger != TriggerThrottleEdge {
			t.Errorf("trigger = %q, want %q", m.Trigger, TriggerThrottleEdge)
		}
		if m.Reason == "" {
			t.Errorf("bundle %s has no reason", m.ID)
		}
		if m.CooldownS != 60 {
			t.Errorf("cooldown_s = %g, want 60", m.CooldownS)
		}
	}
	if ms[0].Seq >= ms[1].Seq {
		t.Errorf("sequence not monotonic: %d then %d", ms[0].Seq, ms[1].Seq)
	}
}

// TestBundleContents checks a captured bundle is self-contained:
// manifest + rollup + trace + heap profile + goroutine dump (CPU
// profile disabled here; CI's incident-smoke covers the real burst, on
// real processes, from a staged SLO burn).
func TestBundleContents(t *testing.T) {
	tr := captrace.New(4, 1024)
	rt, err := capsule.NewValidated(capsule.Config{
		Contexts: 2, Throttle: true, DeathWindow: time.Hour, DeathThreshold: 1,
		Tracer: tr,
	})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Close)
	rec, s, clock := testRecorder(t, rt, Config{Source: "unit"})
	tripThrottle(t, rt)
	s.SampleNow()
	rt.TryDivide(func() {})
	*clock = clock.Add(time.Second)
	s.SampleNow()
	rec.wg.Wait()

	ms := LoadManifests(rec.Dir())
	if len(ms) != 1 {
		t.Fatalf("bundles = %d, want 1", len(ms))
	}
	m := ms[0]
	if m.Source != "unit" {
		t.Errorf("source = %q", m.Source)
	}
	for _, want := range []string{FileWatch, FileTrace, FileHeap, FileGoroutines} {
		found := false
		for _, f := range m.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("manifest files %v missing %s", m.Files, want)
		}
	}
	b, err := LoadBundle(filepath.Join(rec.Dir(), m.ID))
	if err != nil {
		t.Fatalf("LoadBundle: %v", err)
	}
	var reps []capwatch.Report // the /debug/watch schema: an array of one
	if err := json.Unmarshal(b.Watch, &reps); err != nil {
		t.Fatalf("watch.json: %v", err)
	}
	if len(reps) != 1 || reps[0].Source != "test" {
		t.Errorf("rollup = %+v, want one report from source test", reps)
	}
	var snaps []captrace.Snapshot
	if err := json.Unmarshal(b.Trace, &snaps); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(snaps) != 1 || len(snaps[0].Events) == 0 {
		t.Errorf("trace snapshot empty (the divisions above were traced)")
	}
	if len(b.HeapProfile) == 0 {
		t.Errorf("no heap profile")
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Errorf("goroutine dump looks empty: %q", b.Goroutines[:min(80, len(b.Goroutines))])
	}
	if b.Manifest.SLO.TargetP99MS <= 0 {
		t.Errorf("manifest SLO block missing: %+v", b.Manifest.SLO)
	}
}

// TestPruneAndRestart: the on-disk ring holds MaxBundles, survives a
// recorder restart, and the sequence keeps climbing past pruned ids.
func TestPruneAndRestart(t *testing.T) {
	rt := newThrottledRuntime(t)
	dir := t.TempDir()
	rec, s, clock := testRecorder(t, rt, Config{Dir: dir, MaxBundles: 2, Cooldown: time.Second})
	tripThrottle(t, rt)
	s.SampleNow()
	for i := 0; i < 4; i++ {
		rt.TryDivide(func() {})
		*clock = clock.Add(2 * time.Second)
		s.SampleNow()
		rec.wg.Wait()
	}
	if got := rec.Incidents(); got != 4 {
		t.Fatalf("incidents = %d, want 4", got)
	}
	ms := LoadManifests(dir)
	if len(ms) != 2 {
		t.Fatalf("resident = %d, want 2 after prune", len(ms))
	}
	if ms[0].Seq != 2 || ms[1].Seq != 3 {
		t.Fatalf("pruned wrong end: kept seqs %d,%d want 2,3", ms[0].Seq, ms[1].Seq)
	}
	rec.Close()

	// A new recorder over the same dir indexes the survivors and
	// continues the sequence — restarts don't recycle bundle ids.
	rec2, err := New(Config{Dir: dir, Runtime: rt, MaxBundles: 2})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if rec2.seq != 4 {
		t.Fatalf("restart seq = %d, want 4", rec2.seq)
	}
	if got := len(LoadManifests(dir)); got != 2 {
		t.Fatalf("restart lost bundles: %d", got)
	}
	// Torn temp dirs from a crash are swept.
	os.MkdirAll(filepath.Join(dir, ".tmp-inc-000099-x-1"), 0o755)
	if _, err := New(Config{Dir: dir, Runtime: rt}); err != nil {
		t.Fatalf("New over torn dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-inc-000099-x-1")); !os.IsNotExist(err) {
		t.Errorf("torn temp dir not swept")
	}
}

// TestHandler pins the /debug/incident contract: an array in recorder
// order, ?id= fetch across recorders, unknown and escaping ids 404,
// DELETE semantics.
func TestHandler(t *testing.T) {
	rt := newThrottledRuntime(t)
	rec, s, clock := testRecorder(t, rt, Config{Source: "alpha", Cooldown: time.Second})
	tripThrottle(t, rt)
	s.SampleNow()
	rt.TryDivide(func() {})
	*clock = clock.Add(2 * time.Second)
	s.SampleNow()
	rec.wg.Wait()
	if rec.Incidents() != 1 {
		t.Fatalf("want 1 incident, got %d", rec.Incidents())
	}

	other, err := New(Config{Dir: t.TempDir(), Runtime: rt, Source: "beta"})
	if err != nil {
		t.Fatalf("second recorder: %v", err)
	}

	w := httptest.NewRecorder()
	Handler(rec, other).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident", nil))
	var lists []List
	if err := json.Unmarshal(w.Body.Bytes(), &lists); err != nil {
		t.Fatalf("incident body: %v", err)
	}
	if len(lists) != 2 || lists[0].Source != "alpha" || lists[1].Source != "beta" || len(lists[0].Bundles) != 1 {
		t.Fatalf("bad lists: %+v", lists)
	}
	id := lists[0].Bundles[0].ID

	// Fetch one bundle by id through the merged handler.
	w = httptest.NewRecorder()
	Handler(other, rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident?id="+id, nil))
	if w.Code != 200 {
		t.Fatalf("fetch %s: %d %s", id, w.Code, w.Body.String())
	}
	var b Bundle
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatalf("bundle decode: %v", err)
	}
	if b.Manifest.ID != id || len(b.Trace) == 0 {
		t.Fatalf("bundle incomplete: %+v", b.Manifest)
	}

	// Unknown id: 404. Path escapes: rejected.
	w = httptest.NewRecorder()
	Handler(rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident?id=inc-nope", nil))
	if w.Code != 404 {
		t.Fatalf("unknown id: %d", w.Code)
	}
	w = httptest.NewRecorder()
	Handler(rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident?id=../../etc", nil))
	if w.Code != 404 {
		t.Fatalf("traversal id: %d", w.Code)
	}

	// DELETE clears; list is then empty but incidents_total persists.
	w = httptest.NewRecorder()
	Handler(rec, other).ServeHTTP(w, httptest.NewRequest("DELETE", "/debug/incident", nil))
	if w.Code != 200 || !strings.Contains(w.Body.String(), "\"cleared\":1") {
		t.Fatalf("delete: %d %s", w.Code, w.Body.String())
	}
	if got := len(LoadManifests(rec.Dir())); got != 0 {
		t.Fatalf("bundles survive DELETE: %d", got)
	}
	if rec.Incidents() != 1 {
		t.Fatalf("incident counter reset by DELETE")
	}
}

// TestArmedTickWithoutTriggerIsFree is the recorder's steady-state cost
// contract: armed, with no trigger condition holding, it rides the
// sampler's tick — on top of the tick and the one SLO evaluation it
// polls it allocates at most once (the report a capture would take),
// moves no runtime counter, starts no capture and writes no file.
func TestArmedTickWithoutTriggerIsFree(t *testing.T) {
	rt := newThrottledRuntime(t)
	tripThrottle(t, rt) // history from before arming, which must stay history
	rec, s, clock := testRecorder(t, rt, Config{})
	s.SampleNow() // primes the recorder, warms the sampler's buffers
	tick := func() {
		*clock = clock.Add(time.Second)
		s.SampleNow()
	}
	before := rt.Stats()
	armed := testing.AllocsPerRun(100, tick)
	if after := rt.Stats(); after != before {
		t.Fatalf("armed ticks moved the runtime's counters: %+v -> %+v", before, after)
	}
	rec.Close() // detach: the same ticks, bare, plus the evaluation the recorder polled
	if bare := testing.AllocsPerRun(100, func() { tick(); s.SLO() }); armed > bare+1 {
		t.Fatalf("armed tick with no trigger firing allocates %v; the bare tick and its SLO evaluation allocate %v", armed, bare)
	}
	if rec.Incidents() != 0 || rec.errors.Load() != 0 || rec.inflight.Load() {
		t.Fatalf("quiet ticks started a capture: incidents=%d errors=%d inflight=%v", rec.Incidents(), rec.errors.Load(), rec.inflight.Load())
	}
	if entries, err := os.ReadDir(rec.Dir()); err != nil || len(entries) != 0 {
		t.Fatalf("quiet ticks wrote to the bundle directory: %v (err %v)", entries, err)
	}
}

// TestArmedPlanesBesideDivideStorm runs every plane armed at once beside
// a Group divide storm — tracer sampling every request, sampler ticking
// every millisecond, recorder riding the tick with triggers that cannot
// fire (no throttle, no server, no router) — while readers walk the
// sampler's ring and the trace rings. Its value is under -race: the
// planes' readers and ring writers share words with live probes.
func TestArmedPlanesBesideDivideStorm(t *testing.T) {
	const contexts, stormers, tidTag = 4, 6, 0x5707
	tr := captrace.New(0, 256) // small rings: the storm wraps them many times over
	rt, err := capsule.NewValidated(capsule.Config{Contexts: contexts, Tracer: tr})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Close)
	s, err := capwatch.New(capwatch.Config{Runtime: rt, Interval: time.Millisecond})
	if err != nil {
		t.Fatalf("sampler: %v", err)
	}
	rec, err := New(Config{Dir: t.TempDir(), Runtime: rt, ProfileDuration: -1, Cooldown: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec.Arm(s)
	s.Start()

	// until repeats body on its own goroutine until the storm is stopped
	// or body reports a failure.
	var stopped atomic.Bool
	var wg sync.WaitGroup
	until := func(body func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() && body() {
			}
		}()
	}
	for g := uint64(0); g < stormers; g++ {
		var i uint64
		until(func() bool { // one traced request: eight offers, then join
			i++
			grp := rt.NewGroupTraced(tidTag<<48 | g<<32 | i)
			for j := uint64(0); j < 8; j++ {
				work := func() {
					grp.Lock(j)
					grp.Unlock(j)
				}
				if c, ok := grp.Probe(); ok {
					grp.Spawn(c, work)
				} else {
					work()
				}
			}
			grp.Join()
			return true
		})
	}
	until(func() bool { // the sampler's ring, as /debug/watch reads it
		var prev capsule.Stats
		for _, sm := range s.Snapshot(0) {
			c := sm.Capsule
			if c.Probes != c.Granted+c.NoCtxDenies+c.ThrottleDenies {
				t.Errorf("sampled snapshot broke Probes == outcomes: %+v", c)
				return false
			}
			if c.Granted < prev.Granted || c.NoCtxDenies < prev.NoCtxDenies || c.Deaths < prev.Deaths {
				t.Errorf("sampled counters ran backwards: %+v after %+v", c, prev)
				return false
			}
			prev = c
		}
		return true
	})
	until(func() bool { // the trace rings, as /debug/trace reads them
		for _, ev := range tr.Snapshot("storm", 0).Events {
			ok := ev.TID>>48 == tidTag && (ev.TID>>32)&0xffff < stormers
			switch ev.Kind {
			case captrace.KProbeGranted, captrace.KHandoff, captrace.KDeath:
				ok = ok && ev.B < contexts
			case captrace.KProbeDenied:
				ok = ok && ev.A == captrace.DenyNoCtx
			default:
				ok = false
			}
			if !ok {
				t.Errorf("trace ring returned an event no writer wrote: %+v", ev)
				return false
			}
		}
		return true
	})

	// Long enough for the sampler to have ticked beside the storm many
	// times: on one P the tick goroutine queues behind every stormer.
	const ticks = 20
	for deadline := time.Now().Add(10 * time.Second); s.Samples() < ticks && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	stopped.Store(true)
	wg.Wait()
	s.Stop()
	rec.Close()

	if st := rt.Stats(); st.Granted == 0 || st.NoCtxDenies == 0 {
		t.Fatalf("the storm never both divided and was refused: %+v", st)
	}
	if s.Samples() < ticks {
		t.Fatalf("sampler took %d samples in 10s beside the storm, want >= %d", s.Samples(), ticks)
	}
	if n := len(LoadManifests(rec.Dir())); rec.Incidents() != 0 || n != 0 {
		t.Fatalf("a trigger fired with nothing to fire on: %d incidents, %d bundles", rec.Incidents(), n)
	}
}

// FuzzBundleID: no ?id= the handler accepts ever resolves outside the
// recorder's directory — an id validBundleID passes names a direct child
// of it — and only the one resident bundle's id is ever served.
func FuzzBundleID(f *testing.F) {
	const resident = "inc-000001-slo_budget_exhausted-1"
	for _, id := range []string{resident, "../../etc", "inc-..", "inc-../x", `inc-..\x`, "inc-", "..", "/"} {
		f.Add(id)
	}
	dir := filepath.Join(f.TempDir(), "rec")
	if err := os.MkdirAll(filepath.Join(dir, resident), 0o755); err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, resident, FileManifest), []byte(`{"id":"`+resident+`","seq":1}`), 0o644); err != nil {
		f.Fatal(err)
	}
	rt := capsule.New(capsule.Config{Contexts: 2})
	f.Cleanup(rt.Close)
	rec, err := New(Config{Dir: dir, Runtime: rt})
	if err != nil {
		f.Fatal(err)
	}
	h := Handler(rec)
	f.Fuzz(func(t *testing.T, id string) {
		if validBundleID(id) && filepath.Dir(filepath.Join(dir, id)) != dir {
			t.Fatalf("accepted id %q resolves to %s, outside %s", id, filepath.Join(dir, id), dir)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident?"+url.Values{"id": {id}}.Encode(), nil))
		if want := id == resident || id == ""; (w.Code == 200) != want {
			t.Fatalf("?id=%q: status %d", id, w.Code)
		}
	})
}

// plantBundle writes dir/name/manifest.json with the given body.
func plantBundle(t testing.TB, dir, name, manifest string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name, FileManifest), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
}

// sentinel makes root/victim/keep, the sibling a manifest naming
// "../victim" aims at, and returns a check that it survived.
func sentinel(t testing.TB, root string) func(what string) {
	t.Helper()
	keep := filepath.Join(root, "victim", "keep")
	if err := os.MkdirAll(keep, 0o755); err != nil {
		t.Fatal(err)
	}
	return func(what string) {
		t.Helper()
		if _, err := os.Stat(keep); err != nil {
			t.Fatalf("%s removed a directory outside the recorder's: %v", what, err)
		}
	}
}

// TestForeignManifestStaysInside: a bundle's identity is its directory
// name. A manifest whose id names another path (here ../victim) is
// foreign and skipped, so no prune, ClearAll or DELETE removes anything
// outside the recorder's directory.
func TestForeignManifestStaysInside(t *testing.T) {
	rt := newThrottledRuntime(t)
	for _, tc := range []struct {
		what  string
		max   int
		clear func(*Recorder)
	}{
		{"prune past MaxBundles", 1, func(*Recorder) {}},
		{"ClearAll", 0, func(r *Recorder) { r.ClearAll() }},
		{"DELETE /debug/incident", 0, func(r *Recorder) {
			Handler(r).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/debug/incident", nil))
		}},
	} {
		t.Run(tc.what, func(t *testing.T) {
			root := t.TempDir()
			survived := sentinel(t, root)
			dir := filepath.Join(root, "rec")
			plantBundle(t, dir, "inc-000000-x-1", `{"id":"../victim","seq":0}`)
			plantBundle(t, dir, "inc-000001-x-2", `{"seq":1}`)
			plantBundle(t, dir, "inc-000002-x-3", `{"id":"inc-000002-x-3","seq":2}`)
			rec, err := New(Config{Dir: dir, Runtime: rt, MaxBundles: tc.max})
			if err != nil {
				t.Fatal(err)
			}
			tc.clear(rec)
			survived(tc.what)
			for _, m := range LoadManifests(dir) {
				if !validBundleID(m.ID) || filepath.Dir(filepath.Join(dir, m.ID)) != dir {
					t.Fatalf("LoadManifests returned id %q", m.ID)
				}
			}
		})
	}
}

// FuzzLoadManifests: whatever bytes a torn or hostile manifest.json
// holds, the reader does not panic, every manifest it returns is named
// by its own directory, and ClearAll stays inside the recorder's dir.
func FuzzLoadManifests(f *testing.F) {
	const name = "inc-000001-x-1"
	f.Add([]byte(`{"id":"` + name + `","seq":1}`)) // the hostile seeds are in testdata/fuzz
	f.Fuzz(func(t *testing.T, manifest []byte) {
		root := t.TempDir()
		survived := sentinel(t, root)
		dir := filepath.Join(root, "rec")
		plantBundle(t, dir, name, string(manifest))
		for _, m := range LoadManifests(dir) {
			if m.ID != name || !validBundleID(m.ID) {
				t.Fatalf("manifest %q read back as id %q", manifest, m.ID)
			}
		}
		(&Recorder{dir: dir}).ClearAll()
		survived("ClearAll")
	})
}
