package capwatch

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
)

// newThrottledRuntime builds a runtime whose death-rate throttle trips
// on the first worker death and stays tripped for an hour — so every
// subsequent TryDivide is a throttle deny, giving tests a sustained
// trigger condition they can produce on demand.
func newThrottledRuntime(t *testing.T) *capsule.Runtime {
	t.Helper()
	rt, err := capsule.NewValidated(capsule.Config{
		Contexts:    2, // threshold 2/2 = 1
		Throttle:    true,
		DeathWindow: time.Hour,
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

// testRecorder builds a manually-ticked sampler with an incident
// recorder on a fake clock and CPU profiling disabled (captures land
// synchronously via wg.Wait, and cooldowns are driven by the clock, not
// sleeps).
func testRecorder(t *testing.T, rt *capsule.Runtime, cfg Config) (*recorder, *Sampler, *time.Time) {
	t.Helper()
	if cfg.IncidentDir == "" {
		cfg.IncidentDir = t.TempDir()
	}
	if cfg.Source == "" {
		cfg.Source = "test"
	}
	cfg.Runtime, cfg.Interval = rt, 50*time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := s.rec
	rec.profDur = -1
	clock := time.Now()
	rec.now = func() time.Time { return clock }
	t.Cleanup(s.Stop)
	return rec, s, &clock
}

// TestNewValidatesIncident: New rejects incident settings it cannot
// honour, and arms no recorder without an IncidentDir.
func TestNewValidatesIncident(t *testing.T) {
	rt := newRuntime(t, 2)
	if _, err := New(Config{Runtime: rt, IncidentDir: t.TempDir(), Cooldown: -time.Second}); err == nil {
		t.Error("New accepted a negative cooldown")
	}
	if _, err := New(Config{Runtime: rt, IncidentDir: t.TempDir(), MaxBundles: -1}); err == nil {
		t.Error("New accepted a negative MaxBundles")
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Runtime: rt, IncidentDir: filepath.Join(file, "bundles")}); err == nil {
		t.Error("New accepted an IncidentDir it cannot create")
	}
	if s, err := New(Config{Runtime: rt}); err != nil || s.IncidentDir() != "" {
		t.Errorf("no IncidentDir armed a recorder: %v, %q", err, s.IncidentDir())
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
	if got := len(LoadManifests(rec.dir)); got != 0 {
		t.Fatalf("armed recorder fired on pre-existing counters: %d bundles", got)
	}
	if rec.incidents.Load() != 0 {
		t.Fatalf("incidents = %d, want 0", rec.incidents.Load())
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
	if got := rec.incidents.Load(); got != 1 {
		t.Fatalf("sustained burn inside one cooldown: %d bundles, want exactly 1", got)
	}

	// Crossing the cooldown boundary allows exactly one more.
	*clock = clock.Add(2 * time.Minute)
	rt.TryDivide(func() {})
	s.SampleNow()
	rec.wg.Wait()
	if got := rec.incidents.Load(); got != 2 {
		t.Fatalf("after cooldown expiry: %d bundles, want 2", got)
	}
	ms := LoadManifests(rec.dir)
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
// profile disabled here; internal/smoke's TestIncident covers the real
// burst, on real processes, from a staged SLO burn).
func TestBundleContents(t *testing.T) {
	tr := captrace.New(4, 1024)
	rt, err := capsule.NewValidated(capsule.Config{
		Contexts: 2, Throttle: true, DeathWindow: time.Hour, // threshold 2/2 = 1
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

	ms := LoadManifests(rec.dir)
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
	b, err := LoadBundle(filepath.Join(rec.dir, m.ID))
	if err != nil {
		t.Fatalf("LoadBundle: %v", err)
	}
	var reps []Report // the /debug/watch schema: an array of one
	if err := json.Unmarshal(b.Watch, &reps); err != nil {
		t.Fatalf("watch.json: %v", err)
	}
	if len(reps) != 1 || reps[0].Source != "unit" {
		t.Errorf("rollup = %+v, want one report from source unit", reps)
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
	rec, s, clock := testRecorder(t, rt, Config{IncidentDir: dir, MaxBundles: 2, Cooldown: time.Second})
	tripThrottle(t, rt)
	s.SampleNow()
	for i := 0; i < 4; i++ {
		rt.TryDivide(func() {})
		*clock = clock.Add(2 * time.Second)
		s.SampleNow()
		rec.wg.Wait()
	}
	if got := rec.incidents.Load(); got != 4 {
		t.Fatalf("incidents = %d, want 4", got)
	}
	ms := LoadManifests(dir)
	if len(ms) != 2 {
		t.Fatalf("resident = %d, want 2 after prune", len(ms))
	}
	if ms[0].Seq != 2 || ms[1].Seq != 3 {
		t.Fatalf("pruned wrong end: kept seqs %d,%d want 2,3", ms[0].Seq, ms[1].Seq)
	}
	s.Stop()

	// A new recorder over the same dir indexes the survivors and
	// continues the sequence — restarts don't recycle bundle ids.
	s2, err := New(Config{Runtime: rt, IncidentDir: dir, MaxBundles: 2})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if s2.rec.seq != 4 {
		t.Fatalf("restart seq = %d, want 4", s2.rec.seq)
	}
	if got := len(LoadManifests(dir)); got != 2 {
		t.Fatalf("restart lost bundles: %d", got)
	}
	// Torn temp dirs from a crash are swept.
	os.MkdirAll(filepath.Join(dir, ".tmp-inc-000099-x-1"), 0o755)
	if _, err := New(Config{Runtime: rt, IncidentDir: dir}); err != nil {
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
	if rec.incidents.Load() != 1 {
		t.Fatalf("want 1 incident, got %d", rec.incidents.Load())
	}

	other, err := New(Config{Runtime: rt, IncidentDir: t.TempDir(), Source: "beta"})
	if err != nil {
		t.Fatalf("second recorder: %v", err)
	}

	w := httptest.NewRecorder()
	IncidentHandler(s, other).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident", nil))
	var lists []IncidentList
	if err := json.Unmarshal(w.Body.Bytes(), &lists); err != nil {
		t.Fatalf("incident body: %v", err)
	}
	if len(lists) != 2 || lists[0].Source != "alpha" || lists[1].Source != "beta" || len(lists[0].Bundles) != 1 {
		t.Fatalf("bad lists: %+v", lists)
	}
	id := lists[0].Bundles[0].ID

	// Fetch one bundle by id through the merged handler.
	w = httptest.NewRecorder()
	IncidentHandler(other, s).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident?id="+id, nil))
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
	IncidentHandler(s).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident?id=inc-nope", nil))
	if w.Code != 404 {
		t.Fatalf("unknown id: %d", w.Code)
	}
	w = httptest.NewRecorder()
	IncidentHandler(s).ServeHTTP(w, httptest.NewRequest("GET", "/debug/incident?id=../../etc", nil))
	if w.Code != 404 {
		t.Fatalf("traversal id: %d", w.Code)
	}

	// DELETE clears; list is then empty but incidents_total persists.
	w = httptest.NewRecorder()
	IncidentHandler(s, other).ServeHTTP(w, httptest.NewRequest("DELETE", "/debug/incident", nil))
	if w.Code != 200 || !strings.Contains(w.Body.String(), "\"cleared\":1") {
		t.Fatalf("delete: %d %s", w.Code, w.Body.String())
	}
	if got := len(LoadManifests(rec.dir)); got != 0 {
		t.Fatalf("bundles survive DELETE: %d", got)
	}
	if rec.incidents.Load() != 1 {
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
	// The same ticks on a sampler without a recorder, plus the
	// evaluation the recorder polls.
	bare, err := New(Config{Runtime: rt, Interval: s.Interval()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bare.SampleNow()
	if bare := testing.AllocsPerRun(100, func() { bare.SampleNow(); bare.evalSLO() }); armed > bare+1 {
		t.Fatalf("armed tick with no trigger firing allocates %v; the bare tick and its SLO evaluation allocate %v", armed, bare)
	}
	if rec.incidents.Load() != 0 || rec.errors.Load() != 0 || rec.inflight.Load() {
		t.Fatalf("quiet ticks started a capture: incidents=%d errors=%d inflight=%v", rec.incidents.Load(), rec.errors.Load(), rec.inflight.Load())
	}
	if entries, err := os.ReadDir(rec.dir); err != nil || len(entries) != 0 {
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
	s, err := New(Config{Runtime: rt, Interval: time.Millisecond, IncidentDir: t.TempDir(), Cooldown: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := s.rec
	rec.profDur = -1
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

	if st := rt.Stats(); st.Granted == 0 || st.NoCtxDenies == 0 {
		t.Fatalf("the storm never both divided and was refused: %+v", st)
	}
	if s.Samples() < ticks {
		t.Fatalf("sampler took %d samples in 10s beside the storm, want >= %d", s.Samples(), ticks)
	}
	if n := len(LoadManifests(rec.dir)); rec.incidents.Load() != 0 || n != 0 {
		t.Fatalf("a trigger fired with nothing to fire on: %d incidents, %d bundles", rec.incidents.Load(), n)
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
	rt, err := capsule.NewValidated(capsule.Config{Contexts: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	s, err := New(Config{Runtime: rt, IncidentDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	h := IncidentHandler(s)
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
	for _, tc := range []struct {
		what  string
		max   int
		clear func(*Sampler)
	}{
		{"prune past MaxBundles", 1, func(*Sampler) {}},
		{"ClearAll", 0, func(s *Sampler) { s.rec.clearAll() }},
		{"DELETE /debug/incident", 0, func(s *Sampler) {
			IncidentHandler(s).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/debug/incident", nil))
		}},
	} {
		t.Run(tc.what, func(t *testing.T) {
			root := t.TempDir()
			survived := sentinel(t, root)
			dir := filepath.Join(root, "rec")
			plantBundle(t, dir, "inc-000000-x-1", `{"id":"../victim","seq":0}`)
			plantBundle(t, dir, "inc-000001-x-2", `{"seq":1}`)
			plantBundle(t, dir, "inc-000002-x-3", `{"id":"inc-000002-x-3","seq":2}`)
			s, err := New(Config{Runtime: newRuntime(t, 2), IncidentDir: dir, MaxBundles: tc.max})
			if err != nil {
				t.Fatal(err)
			}
			tc.clear(s)
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
		(&recorder{dir: dir}).clearAll()
		survived("ClearAll")
	})
}

// TestJudge pins the counter triggers on a pair of hand-built samples:
// each fires on what moved between them, names a backend by its
// BackendStats.Name, and the shed rate divides by the clamped span the
// sampler hands over.
func TestJudge(t *testing.T) {
	pair := func() (prev, cur Sample) {
		prev.Backends = []capcluster.BackendStats{{Name: "a:1"}, {Name: "b:2"}}
		cur.Backends = []capcluster.BackendStats{{Name: "a:1"}, {Name: "b:2"}}
		return prev, cur
	}
	for _, tc := range []struct {
		name, trigger, reason string
		sec                   float64
		move                  func(prev, cur *Sample)
	}{
		{"quiet", "", "", 1, func(prev, cur *Sample) {
			prev.Capsule.ThrottleDenies, cur.Capsule.ThrottleDenies = 7, 7 // history, not news
			prev.Backends[0].Broken, cur.Backends[0].Broken = true, true
		}},
		{"breaker", TriggerBreakerTrip, "backend b:2 circuit breaker opened", 1, func(prev, cur *Sample) {
			cur.Backends[1].Broken = true
			cur.Backends[0].Ejections = 1 // outranked
		}},
		{"ejection", TriggerSlowEjection, "backend a:1 ejected as slow (2 ejection(s) this tick)", 1, func(prev, cur *Sample) {
			prev.Backends[0].Ejections, cur.Backends[0].Ejections = 1, 3
		}},
		{"shed storm", TriggerShedStorm, "queue-full 503s at 5.0/s >= 5.0/s threshold", 2, func(prev, cur *Sample) {
			cur.Sheds = 10
		}},
		{"sheds under the storm rate", "", "", 2, func(prev, cur *Sample) {
			cur.Sheds = 9
		}},
		{"throttle", TriggerThrottleEdge, "death-rate throttle denied 2 division(s) this tick (4 deaths total)", 1, func(prev, cur *Sample) {
			cur.Capsule.ThrottleDenies, cur.Capsule.Deaths = 2, 4
		}},
	} {
		prev, cur := pair()
		tc.move(&prev, &cur)
		if trigger, reason := judge(&prev, &cur, tc.sec, func(string) bool { return false }); trigger != tc.trigger || reason != tc.reason {
			t.Errorf("%s: judge = %q, %q; want %q, %q", tc.name, trigger, reason, tc.trigger, tc.reason)
		}
	}

	// A cooling trigger yields to the next one ranked below it that
	// fired, and fires nothing itself.
	prev, cur := pair()
	cur.Backends[1].Broken = true
	cur.Sheds = 10
	cur.Capsule.ThrottleDenies = 1
	for _, tc := range []struct {
		cooling []string
		want    string
	}{
		{nil, TriggerBreakerTrip},
		{[]string{TriggerBreakerTrip}, TriggerShedStorm},
		{[]string{TriggerBreakerTrip, TriggerShedStorm}, TriggerThrottleEdge},
		{[]string{TriggerBreakerTrip, TriggerShedStorm, TriggerThrottleEdge}, ""},
	} {
		cooling := func(trigger string) bool { return slices.Contains(tc.cooling, trigger) }
		if trigger, _ := judge(&prev, &cur, 1, cooling); trigger != tc.want {
			t.Errorf("cooling %v: judge = %q, want %q", tc.cooling, trigger, tc.want)
		}
	}
}

// TestCoolingTriggerMasksNone: a sustained SLO burn whose trigger is
// cooling down must not hide a breaker trip that happens during it. A
// router's latency objective burns on every request; the first tick
// after the burn captures slo_budget_exhausted, then the only backend
// dies, its breaker opens on the next request, and that tick — burn
// still on, still cooling — captures breaker_trip.
func TestCoolingTriggerMasksNone(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"workload":"quicksort"}`)
	}))
	defer backend.Close()
	rt := newRuntime(t, 2)
	local, err := capserve.New(capserve.Config{Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	router, err := capcluster.New(capcluster.Config{Backends: []string{backend.URL}, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	rec, s, clock := testRecorder(t, rt, Config{
		Server: local, Router: router, Cooldown: time.Hour,
		SLO: SLOConfig{TargetP99: time.Nanosecond, FastWindow: time.Hour, SlowWindow: time.Hour},
	})
	serve := func(n int) {
		for i := 0; i < n; i++ {
			router.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/run/quicksort?n=50&seed=1", nil))
		}
	}
	s.SampleNow() // prime
	serve(20)     // every request over a 1ns p99 target: both windows burn
	*clock = clock.Add(time.Second)
	s.SampleNow()
	rec.wg.Wait()

	backend.Close()
	serve(5) // the first three dispatches die and open the breaker; the local tier serves all five
	if st := router.Backends()[0].Stats(); !st.Broken {
		t.Fatalf("breaker did not open: %+v", st)
	}
	*clock = clock.Add(time.Second)
	s.SampleNow()
	rec.wg.Wait()

	var triggers []string
	for _, m := range LoadManifests(rec.dir) {
		triggers = append(triggers, m.Trigger)
	}
	if want := []string{TriggerSLOExhausted, TriggerBreakerTrip}; !slices.Equal(triggers, want) {
		t.Fatalf("bundles %v, want %v", triggers, want)
	}
	if slo := s.evalSLO(); !slo.Exhausted {
		t.Fatalf("the burn ended before the breaker tick: %+v", slo)
	}
}

// TestStopWaitsForCapture: Stop ends the tick goroutine before it waits
// for the recorder, so no capture starts after the wait and none
// outlives Stop. Run it under -race with -count=20.
func TestStopWaitsForCapture(t *testing.T) {
	rt := newThrottledRuntime(t)
	tripThrottle(t, rt)
	dir := t.TempDir()
	s, err := New(Config{Runtime: rt, Interval: time.Millisecond, IncidentDir: dir, MaxBundles: 1 << 20, Cooldown: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	s.rec.profDur = -1
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the trigger, held: a throttle deny between every two ticks
		defer wg.Done()
		for !stop.Load() {
			rt.TryDivide(func() {})
			runtime.Gosched()
		}
	}()
	s.Start()
	for deadline := time.Now().Add(5 * time.Second); s.rec.incidents.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	stop.Store(true)
	wg.Wait()

	settled := func() (uint64, int) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				t.Fatalf("capture still in flight after Stop: %s", e.Name())
			}
		}
		n, ms := s.rec.incidents.Load(), len(LoadManifests(dir))
		if n == 0 || n != uint64(ms) {
			t.Fatalf("after Stop: %d incidents, %d bundles on disk", n, ms)
		}
		return n, ms
	}
	n, ms := settled()
	time.Sleep(100 * time.Millisecond)
	if n2, ms2 := settled(); n2 != n || ms2 != ms {
		t.Fatalf("a capture landed after Stop: %d incidents, %d bundles, then %d, %d", n, ms, n2, ms2)
	}
}
