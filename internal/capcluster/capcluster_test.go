package capcluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capserve"
	"repro/internal/capsule"
)

// newLocal builds the fallback tier every router needs.
func newLocal(t *testing.T, contexts, queue int) *capserve.Server {
	t.Helper()
	s, err := capserve.New(capserve.Config{Runtime: newRuntime(t, capsule.Config{Contexts: contexts, Throttle: true}), QueueDepth: queue})
	if err != nil {
		t.Fatalf("capserve.New: %v", err)
	}
	return s
}

// newRuntime builds a runtime the test closes at cleanup, after every
// backend drain registered later: a Backend closes no runtime.
func newRuntime(t *testing.T, cfg capsule.Config) *capsule.Runtime {
	t.Helper()
	rt := capsule.New(cfg)
	t.Cleanup(rt.Close)
	return rt
}

// startBackend boots a real in-process capserve backend and tears it
// down (drained) at cleanup.
func startBackend(t *testing.T, contexts, queue int) *capserve.Backend {
	t.Helper()
	b, err := capserve.StartBackendOn(capserve.Config{
		Runtime:    newRuntime(t, capsule.Config{Contexts: contexts, Throttle: true}),
		QueueDepth: queue,
	}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	t.Cleanup(func() { drain(t, b) })
	return b
}

// drain closes b gracefully, as a deploy does.
func drain(t *testing.T, b *capserve.Backend) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Close(ctx); err != nil {
		t.Errorf("draining %s: %v", b.URL, err)
	}
}

// testClock returns a clock running speed times real time; speed 0 is a
// stopped clock that moves only when the test sets base.
func testClock(speed int64) *clock {
	c := newClock()
	c.speed = speed
	return c
}

// stormSpeed runs the socket storms' clocks so the 2 s breaker window
// passes in 400 real ms, and the 3 s stale TTL in 600 — still longer
// than the backends' real 500 ms feed heartbeat, which the router's
// clock does not speed up.
const stormSpeed = 5

// newRouter serves a router from cfg on the production clock.
func newRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	return newRouterAt(t, cfg, 1)
}

// newRouterAt serves a router from cfg whose clock runs speed times real
// time (see testClock).
func newRouterAt(t *testing.T, cfg Config, speed int64) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Local == nil {
		cfg.Local = newLocal(t, 2, 32)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.clock.speed = speed
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	return r, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func TestConfigValidate(t *testing.T) {
	local := newLocal(t, 2, 8)
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("nil Local accepted")
	}
	if err := (Config{Local: local, Backends: []string{"not a url"}}).Validate(); err == nil {
		t.Fatal("garbage backend URL accepted")
	}
	if err := (Config{Local: local, Backends: []string{"ftp://x"}}).Validate(); err == nil {
		t.Fatal("non-http backend URL accepted")
	}
	// A backend is named by its host:port; listing it twice would give
	// it two credit gauges and two copies of its labelled series.
	if err := (Config{Local: local, Backends: []string{"http://127.0.0.1:1", "https://127.0.0.1:1/"}}).Validate(); err == nil {
		t.Fatal("backend listed twice accepted")
	}
	if err := (Config{Local: local, Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestClockCountsFromNew: the production clock reads monotonic time
// since New, not Unix time, so a wall-clock step moves no breaker
// window, trial backoff or stale TTL — and a backend never heard from
// is stale from the first instant, as it was on Unix time.
func TestClockCountsFromNew(t *testing.T) {
	before := time.Now()
	r, _ := newRouter(t, Config{Backends: []string{"http://127.0.0.1:1"}})
	now, elapsed := r.clock.now(), time.Since(before)
	if now < 0 || now > int64(elapsed) {
		t.Fatalf("clock reads %d ns %v after New began; want a reading in [0, %d]", now, elapsed, int64(elapsed))
	}
	if !r.Backends()[0].stale() {
		t.Fatal("a backend never heard from is not stale")
	}
}

// TestProbeDenyAllocFree pins the PR 3 discipline at cluster scope: both
// remote-probe refusal reasons are allocation-free.
func TestProbeDenyAllocFree(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, testClock(0))

	b.setCredits(0) // every probe refuses on credit
	if allocs := testing.AllocsPerRun(1000, func() {
		if b.probe() {
			t.Fatal("probe granted with zero credits")
		}
	}); allocs != 0 {
		t.Fatalf("credit-deny path allocates %.1f/op, want 0", allocs)
	}

	b.setCredits(4)
	for i := 0; i < failThreshold; i++ {
		b.fail()
	}
	if !b.Broken() {
		t.Fatal("breaker not open after threshold failures")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if b.probe() {
			t.Fatal("probe granted through an open breaker")
		}
	}); allocs != 0 {
		t.Fatalf("breaker-deny path allocates %.1f/op, want 0", allocs)
	}
}

// TestProbeDenyNetworkFree asserts a denied remote probe costs the
// backend nothing: with credits at zero the router degrades locally and
// the backend never sees a connection.
func TestProbeDenyNetworkFree(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "should never be reached", http.StatusTeapot)
	}))
	defer backend.Close()

	r, ts := newRouter(t, Config{Backends: []string{backend.URL}})
	r.Backends()[0].setCredits(0)

	resp, _ := get(t, ts.URL+"/run/quicksort?n=200&seed=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via local fallback", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRoute); got != "local" {
		t.Fatalf("%s = %q, want local", HeaderRoute, got)
	}
	if hits.Load() != 0 {
		t.Fatalf("backend saw %d requests across a credit-denied probe, want 0", hits.Load())
	}
	s := r.Stats()
	if s.CreditDenies == 0 || s.LocalFallbacks != 1 || s.RemoteGrants != 0 {
		t.Fatalf("stats after denied probe: %+v", s)
	}
}

// TestBreakerTripsAndReadmits drives the failure ring with an injected
// clock: threshold failures deny probes, and the probes flow again once
// the window slides past them.
func TestBreakerTripsAndReadmits(t *testing.T) {
	clock := testClock(0)
	b := newBackend("http://127.0.0.1:1", "b0", 0, clock)

	for i := 0; i < failThreshold; i++ {
		if !b.probe() {
			t.Fatalf("probe %d refused before any failures", i)
		}
		b.release()
		b.fail()
	}
	if !b.Broken() {
		t.Fatal("breaker closed after threshold failures inside the window")
	}
	if b.probe() {
		t.Fatal("probe granted through an open breaker")
	}
	if b.breakerDenies.Load() != 1 {
		t.Fatalf("breakerDenies = %d, want 1", b.breakerDenies.Load())
	}

	clock.base.Store(int64(failWindow) + 1) // the window has drained
	if b.Broken() {
		t.Fatal("breaker still open after the window drained")
	}
	if !b.probe() {
		t.Fatal("half-open trial refused after re-admission")
	}
	// Re-admission is one request wide: while the trial is unresolved,
	// every other probe keeps getting denied — a black-holing backend
	// stalls at most one request per quiet window, not a stampede.
	if b.probe() {
		t.Fatal("second probe granted while the trial is in flight")
	}

	// A failed trial re-arms probation AND dirties the window: no new
	// trial until it is quiet again.
	b.release()
	b.fail()
	clock.base.Add(int64(failWindow / 4))
	if b.Broken() {
		t.Fatal("one failed trial tripped the breaker")
	}
	if b.probe() {
		t.Fatal("trial granted with a failure still inside the window")
	}
	clock.base.Add(int64(failWindow))
	if !b.probe() {
		t.Fatal("trial refused after the failed trial aged out")
	}

	// A response of any kind closes probation: full probing resumes.
	b.release()
	b.recover()
	if !b.probe() {
		t.Fatal("probe refused after a successful trial closed probation")
	}
	if !b.probe() {
		t.Fatal("second concurrent probe refused after probation closed")
	}
	b.release()
	b.release()

	// A fresh failure burst re-trips it.
	for i := 0; i < failThreshold; i++ {
		b.fail()
	}
	if !b.Broken() {
		t.Fatal("breaker did not re-trip on a fresh burst")
	}
}

// TestCreditGauge covers the packed gauge's protocol: grants stop at the
// ceiling, release restores, learn folds advertised headroom in on top
// of in-flight, setCredits clamps.
func TestCreditGauge(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, testClock(0))
	b.setCredits(3)
	for i := 0; i < 3; i++ {
		if !b.probe() {
			t.Fatalf("probe %d refused with credits free", i)
		}
	}
	if b.probe() {
		t.Fatal("probe granted beyond the ceiling")
	}
	if b.Inflight() != 3 || b.Credits() != 3 {
		t.Fatalf("gauge = %d/%d, want 3/3", b.Inflight(), b.Credits())
	}
	b.release()
	if !b.probe() {
		t.Fatal("probe refused after a release")
	}

	// 3 in flight, backend advertises 2 free → ceiling 5.
	b.learn(2)
	if b.Credits() != 5 || b.Inflight() != 3 {
		t.Fatalf("after learn(2): %d/%d, want 3/5", b.Inflight(), b.Credits())
	}
	b.learn(2 * creditCap) // clamped at creditCap
	if b.Credits() != creditCap {
		t.Fatalf("learn over max: credits %d, want %d", b.Credits(), creditCap)
	}
	b.learn(-1) // negative headroom readings are ignored
	if b.Credits() != creditCap {
		t.Fatalf("learn(-1) changed credits to %d", b.Credits())
	}
	b.setCredits(-5)
	if b.Credits() != 0 {
		t.Fatalf("setCredits(-5): credits %d, want 0", b.Credits())
	}
	for i := 0; i < 3; i++ {
		b.release()
	}
	if b.Inflight() != 0 {
		t.Fatalf("inflight %d after all releases, want 0", b.Inflight())
	}
}

// TestCreditGaugeStorm races probes, releases and learns; the invariant
// is no lost releases (final inflight zero) and no grant beyond the
// ceiling at snapshot time.
func TestCreditGaugeStorm(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, testClock(0))
	b.setCredits(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if b.probe() {
					if g == 0 && i%7 == 0 {
						b.learn(8)
					}
					b.release()
				}
			}
		}(g)
	}
	wg.Wait()
	if b.Inflight() != 0 {
		t.Fatalf("inflight %d after storm, want 0", b.Inflight())
	}
	// learn(8) runs with at most the 8 probers' credits in flight.
	if c := b.Credits(); c < 8 || c > 16 {
		t.Fatalf("credits %d after storm, want within [8,16]", c)
	}
}

// TestPlacementPolicies pins leastLoaded, the router's one placement:
// the widest credits-minus-inflight gap wins, ties go to the lowest
// index, and a fleet with no headroom anywhere answers 0.
func TestPlacementPolicies(t *testing.T) {
	mk := func(credits ...int) []*Backend {
		bs := make([]*Backend, len(credits))
		for i, c := range credits {
			bs[i] = newBackend(fmt.Sprintf("http://127.0.0.1:%d", i+1), fmt.Sprintf("b%d", i), i, testClock(0))
			bs[i].setCredits(c)
		}
		return bs
	}

	if got := leastLoaded(mk(4, 4, 4)); got != 0 {
		t.Fatalf("least-loaded picked %d on a tie, want 0 (lowest index)", got)
	}
	bs := mk(2, 8, 4)
	if got := leastLoaded(bs); got != 1 {
		t.Fatalf("least-loaded picked %d, want 1 (most free credits)", got)
	}
	for i := 0; i < 5; i++ { // b1 free: 3; b2 free: 4
		bs[1].probe()
	}
	if got := leastLoaded(bs); got != 2 {
		t.Fatalf("least-loaded picked %d after load shift, want 2", got)
	}
	bs = mk(0, 1, 1)
	bs[1].probe()
	bs[2].probe() // no headroom anywhere
	if got := leastLoaded(bs); got != 0 {
		t.Fatalf("least-loaded picked %d on a dry fleet, want 0", got)
	}
}

// TestRouterProxiesRemote is the happy path: a routed request matches a
// direct one bit for bit (checksum), carries the route headers, and 4xx
// conversations proxy through without counting as backend health events.
func TestRouterProxiesRemote(t *testing.T) {
	b := startBackend(t, 2, 16)
	r, ts := newRouter(t, Config{Backends: []string{b.URL}})

	_, direct := get(t, b.URL+"/run/quicksort?n=300&seed=42")
	resp, routed := get(t, ts.URL+"/run/quicksort?n=300&seed=42")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed status %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderRoute) != "remote" {
		t.Fatalf("%s = %q, want remote", HeaderRoute, resp.Header.Get(HeaderRoute))
	}
	if got := resp.Header.Get(HeaderBackend); got != r.Backends()[0].Name() {
		t.Fatalf("%s = %q, want %q", HeaderBackend, got, r.Backends()[0].Name())
	}
	var dr, rr struct {
		Checksum uint64 `json:"checksum"`
	}
	if json.Unmarshal(direct, &dr) != nil || json.Unmarshal(routed, &rr) != nil {
		t.Fatalf("unparseable bodies: %q %q", direct, routed)
	}
	if dr.Checksum == 0 || dr.Checksum != rr.Checksum {
		t.Fatalf("routed checksum %d != direct %d", rr.Checksum, dr.Checksum)
	}

	// 4xx proxies verbatim and is not a death.
	if resp, _ := get(t, ts.URL+"/run/nosuch?n=10"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload via router = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/run/quicksort?n=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n via router = %d, want 400", resp.StatusCode)
	}
	if d := r.Backends()[0].Stats().Deaths; d != 0 {
		t.Fatalf("4xx counted as %d deaths", d)
	}
	if s := r.Stats(); s.LocalFallbacks != 0 {
		t.Fatalf("happy path fell back locally %d times: %+v", s.LocalFallbacks, s)
	}
}

// TestNoBackendsServesLocally: a fleetless router is just its local tier.
func TestNoBackendsServesLocally(t *testing.T) {
	r, ts := newRouter(t, Config{})
	resp, _ := get(t, ts.URL+"/run/lzw?n=500&seed=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderRoute) != "local" {
		t.Fatalf("%s = %q, want local", HeaderRoute, resp.Header.Get(HeaderRoute))
	}
	if s := r.Stats(); s.LocalFallbacks != 1 || s.RemoteProbes != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestShedRetriesNextBackend: a backend 503 is a stale credit, not a
// death — the router moves to the next backend and the client never
// sees the shed.
func TestShedRetriesNextBackend(t *testing.T) {
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(capserve.HeaderQueueFree, "0")
		http.Error(w, "full", http.StatusServiceUnavailable)
	}))
	defer shedder.Close()
	real := startBackend(t, 2, 16)

	r, ts := newRouter(t, Config{
		// Equal gauges: least-loaded's first pick is backends[0], the
		// shedder.
		Backends: []string{shedder.URL, real.URL},
	})
	resp, _ := get(t, ts.URL+"/run/quicksort?n=200&seed=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via the second backend", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderBackend); got != r.Backends()[1].Name() {
		t.Fatalf("served by %q, want %q", got, r.Backends()[1].Name())
	}
	bs := r.Backends()[0].Stats()
	if bs.Sheds != 1 || bs.Deaths != 0 {
		t.Fatalf("shedder stats: %+v, want 1 shed and 0 deaths", bs)
	}
	// The shed's headroom header (0 free) collapsed the stale credits to
	// exactly the dispatch that was in flight when it was learned: the
	// default ceiling (4) is gone, and once that dispatch released, the
	// gauge reads 1 — one retry allowed after the current batch drains,
	// nothing more.
	if c := r.Backends()[0].Credits(); c != 1 {
		t.Fatalf("shedder credits %d after learn(0) with one dispatch in flight, want 1", c)
	}
}

// TestServerErrorIsDeath: a 5xx is charged to the backend's ring and the
// request completes elsewhere.
func TestServerErrorIsDeath(t *testing.T) {
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer sick.Close()

	r, ts := newRouter(t, Config{Backends: []string{sick.URL}})
	resp, _ := get(t, ts.URL+"/run/quicksort?n=200&seed=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via local fallback", resp.StatusCode)
	}
	if resp.Header.Get(HeaderRoute) != "local" {
		t.Fatalf("route %q, want local", resp.Header.Get(HeaderRoute))
	}
	bs := r.Backends()[0].Stats()
	if bs.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", bs.Deaths)
	}
}

// TestKilledBackendRedistributes is the cluster acceptance test: kill
// one of three live backends under concurrent load — every client
// request still succeeds, the dead backend's ring trips its breaker, and
// the survivors absorb the traffic.
func TestKilledBackendRedistributes(t *testing.T) {
	var backends []*capserve.Backend
	var urls []string
	for i := 0; i < 3; i++ {
		b := startBackend(t, 2, 16)
		backends = append(backends, b)
		urls = append(urls, b.URL)
	}
	// The post-kill storm takes 400 ms, inside one breaker window: once
	// tripped, the victim stays broken through it.
	r, ts := newRouter(t, Config{Backends: urls, Local: newLocal(t, 2, 64)})

	if ok, bad, _ := stormClients([]string{ts.URL}, 8, 300, 200*time.Millisecond); bad != 0 || ok == 0 {
		t.Fatalf("healthy fleet: %d ok, %d failed", ok, bad)
	}

	victim := r.Backends()[0]
	backends[0].Kill()
	servedBefore := make([]uint64, 3)
	for i, b := range r.Backends() {
		servedBefore[i] = b.Stats().Served
	}

	if ok, bad, _ := stormClients([]string{ts.URL}, 8, 300, 400*time.Millisecond); bad != 0 || ok == 0 {
		t.Fatalf("after kill: %d ok, %d failed — clients must never see a dead backend", ok, bad)
	}

	vs := victim.Stats()
	if vs.Deaths < failThreshold {
		t.Fatalf("victim deaths = %d, want >= %d (breaker food)", vs.Deaths, failThreshold)
	}
	if !victim.Broken() {
		t.Fatal("victim's breaker never tripped")
	}
	if vs.BreakerDenies == 0 {
		t.Fatal("no probes were refused by the open breaker")
	}
	redistributed := uint64(0)
	for i, b := range r.Backends()[1:] {
		redistributed += b.Stats().Served - servedBefore[i+1]
	}
	if redistributed == 0 {
		t.Fatal("survivors served nothing after the kill")
	}
	backends[0].Server.Runtime().Close()
}

var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

// TestMetricsExposition: well-formed text format carrying the router's
// caprouter_* series AND the local tier's capsule_*/capserve_* ones.
func TestMetricsExposition(t *testing.T) {
	b := startBackend(t, 2, 16)
	r, ts := newRouter(t, Config{Backends: []string{b.URL}})
	get(t, ts.URL+"/run/quicksort?n=200&seed=1") // one remote grant
	r.Backends()[0].setCredits(0)
	get(t, ts.URL+"/run/quicksort?n=200&seed=2") // one local fallback

	resp, body := get(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed metric line %q", line)
		}
		i := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if _, dup := samples[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		samples[line[:i]] = v
	}
	for series, want := range map[string]float64{
		"caprouter_backends":              1,
		"caprouter_requests_total":        2,
		"caprouter_remote_granted_total":  1,
		"caprouter_local_fallbacks_total": 1,
	} {
		if samples[series] != want {
			t.Fatalf("%s = %v, want %v", series, samples[series], want)
		}
	}
	label := fmt.Sprintf("{backend=%q}", r.Backends()[0].Name())
	if samples["caprouter_backend_dispatches_total"+label] != 1 {
		t.Fatalf("per-backend dispatches = %v, want 1", samples["caprouter_backend_dispatches_total"+label])
	}
	// The local tier's series ride along on the same scrape.
	if _, ok := samples["capsule_probes_total"]; !ok {
		t.Fatal("local capsule_* series missing from router exposition")
	}
	if _, ok := samples["capsule_free_contexts"]; !ok {
		t.Fatal("capsule_free_contexts missing from router exposition")
	}
}

// TestRouterHealthzAndIndex: everything but /run is the local server's.
// Its drain switch flips the router's /healthz and its index answers /;
// its credit feed is the one path the router refuses, since the local
// tier's queue is not what the router offers the fleet.
func TestRouterHealthzAndIndex(t *testing.T) {
	b := startBackend(t, 2, 8)
	r, ts := newRouter(t, Config{Backends: []string{b.URL}})
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	r.Local().SetDraining(true)
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	r.Local().SetDraining(false)

	if resp, _ := get(t, ts.URL+capserve.CreditsPath); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("%s = %d, want 404", capserve.CreditsPath, resp.StatusCode)
	}

	var idx struct {
		Workloads []string `json:"workloads"`
		Contexts  int      `json:"contexts"`
		Queue     int      `json:"queue_depth"`
	}
	resp, body := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("index body %q: %v", body, err)
	}
	if len(idx.Workloads) == 0 || idx.Contexts != 2 || idx.Queue != r.Local().QueueDepth() {
		t.Fatalf("index = %+v, want the local server's", idx)
	}
}
