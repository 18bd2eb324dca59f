package capcluster

import (
	"bytes"
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
	rt := capsule.New(capsule.Config{Contexts: contexts, Throttle: true})
	t.Cleanup(rt.Close)
	s, err := capserve.New(capserve.Config{Runtime: rt, QueueDepth: queue})
	if err != nil {
		t.Fatalf("capserve.New: %v", err)
	}
	return s
}

// startBackend boots a real in-process capserve backend and tears it
// down (drained) at cleanup.
func startBackend(t *testing.T, contexts, queue int) *capserve.Backend {
	t.Helper()
	b, err := capserve.StartBackendOn(capserve.Config{
		Runtime:    capsule.New(capsule.Config{Contexts: contexts, Throttle: true}),
		QueueDepth: queue,
	}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	t.Cleanup(func() {
		drain(t, b)
		b.Runtime().Close()
	})
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

func newRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Local == nil {
		cfg.Local = newLocal(t, 2, 32)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
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
	if err := (Config{Local: local, Credits: -1}).Validate(); err == nil {
		t.Fatal("negative Credits accepted")
	}
	if err := (Config{Local: local, MaxCredits: 1 << 31}).Validate(); err == nil {
		t.Fatal("uint32-truncating MaxCredits accepted")
	}
	if err := (Config{Local: local, FailWindow: -time.Second}).Validate(); err == nil {
		t.Fatal("negative FailWindow accepted")
	}
	if err := (Config{Local: local, Backends: []string{"http://127.0.0.1:1"}}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestProbeDenyAllocFree pins the PR 3 discipline at cluster scope: both
// remote-probe refusal reasons are allocation-free.
func TestProbeDenyAllocFree(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, 4, 1024, 2, time.Second, 0)

	b.setCredits(0) // every probe refuses on credit
	if allocs := testing.AllocsPerRun(1000, func() {
		if b.probe() {
			t.Fatal("probe granted with zero credits")
		}
	}); allocs != 0 {
		t.Fatalf("credit-deny path allocates %.1f/op, want 0", allocs)
	}

	b.setCredits(4)
	b.fail()
	b.fail() // threshold 2: breaker open
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
	b := newBackend("http://127.0.0.1:1", "b0", 0, 4, 1024, 3, time.Second, 0)
	var clock atomic.Int64
	b.now = func() int64 { return clock.Load() }

	for i := 0; i < 3; i++ {
		if !b.probe() {
			t.Fatalf("probe %d refused before any failures", i)
		}
		b.release()
		b.fail()
	}
	if !b.Broken() {
		t.Fatal("breaker closed after 3 failures inside the window")
	}
	if b.probe() {
		t.Fatal("probe granted through an open breaker")
	}
	if b.breakerDenies.Load() != 1 {
		t.Fatalf("breakerDenies = %d, want 1", b.breakerDenies.Load())
	}

	clock.Store(2 * time.Second.Nanoseconds()) // the window has drained
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
	clock.Store(clock.Load() + (500 * time.Millisecond).Nanoseconds())
	if b.Broken() {
		t.Fatal("one failed trial tripped the threshold-3 breaker")
	}
	if b.probe() {
		t.Fatal("trial granted with a failure still inside the window")
	}
	clock.Store(clock.Load() + time.Second.Nanoseconds())
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
	for i := 0; i < 3; i++ {
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
	b := newBackend("http://127.0.0.1:1", "b0", 0, 3, 8, 4, time.Second, 0)
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
	b.learn(100) // clamped at maxCredits
	if b.Credits() != 8 {
		t.Fatalf("learn over max: credits %d, want 8", b.Credits())
	}
	b.learn(-1) // negative headroom readings are ignored
	if b.Credits() != 8 {
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
	b := newBackend("http://127.0.0.1:1", "b0", 0, 8, 64, 4, time.Second, 0)
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
	if c := b.Credits(); c < 8 || c > 64 {
		t.Fatalf("credits %d after storm, want within [8,64]", c)
	}
}

func TestPlacementPolicies(t *testing.T) {
	mk := func(credits ...int) []*Backend {
		bs := make([]*Backend, len(credits))
		for i, c := range credits {
			bs[i] = newBackend(fmt.Sprintf("http://127.0.0.1:%d", i+1), fmt.Sprintf("b%d", i), i, c, 1024, 4, time.Second, 0)
		}
		return bs
	}

	rr := &RoundRobin{}
	bs := mk(4, 4, 4)
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		seen[rr.Pick(0, bs)]++
	}
	if seen[0] != 3 || seen[1] != 3 || seen[2] != 3 {
		t.Fatalf("round-robin spread %v, want 3/3/3", seen)
	}

	ll := LeastLoaded{}
	bs = mk(2, 8, 4)
	if got := ll.Pick(0, bs); got != 1 {
		t.Fatalf("least-loaded picked %d, want 1 (most free credits)", got)
	}
	bs[1].probe()
	bs[1].probe()
	bs[1].probe()
	bs[1].probe()
	bs[1].probe() // b1 free: 3; b2 free: 4
	if got := ll.Pick(0, bs); got != 2 {
		t.Fatalf("least-loaded picked %d after load shift, want 2", got)
	}

	rv := Rendezvous{}
	bs = mk(4, 4, 4)
	spread := map[int]bool{}
	for key := uint64(0); key < 64; key++ {
		p := rv.Pick(key, bs)
		if q := rv.Pick(key, bs); q != p {
			t.Fatalf("rendezvous unstable for key %d: %d then %d", key, p, q)
		}
		spread[p] = true
	}
	if len(spread) < 2 {
		t.Fatalf("rendezvous sent 64 keys to %d backend(s), want spread", len(spread))
	}
	// Minimal remap: weights key on backend identity (URL), not fleet
	// index, so removing one backend moves only the keys it owned.
	reduced := []*Backend{bs[0], bs[2]}
	for key := uint64(0); key < 64; key++ {
		home := bs[rv.Pick(key, bs)]
		if home == bs[1] {
			continue // this key's home left; it may land anywhere
		}
		if moved := reduced[rv.Pick(key, reduced)]; moved != home {
			t.Fatalf("key %d moved %s → %s when an unrelated backend left", key, home.name, moved.name)
		}
	}

	if _, err := NewPlacement("nosuch"); err == nil {
		t.Fatal("unknown placement accepted")
	}
	for _, name := range []string{"", "least-loaded", "round-robin", "rendezvous"} {
		if _, err := NewPlacement(name); err != nil {
			t.Fatalf("NewPlacement(%q): %v", name, err)
		}
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

	// POST body override rides through the proxy.
	resp2, err := http.Post(ts.URL+"/run/quicksort?n=1&seed=1", "application/json",
		bytes.NewBufferString(`{"n": 300, "seed": 42}`))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var pr struct {
		N        int    `json:"n"`
		Seed     int64  `json:"seed"`
		Checksum uint64 `json:"checksum"`
	}
	if err := json.Unmarshal(body2, &pr); err != nil {
		t.Fatalf("POST body %q: %v", body2, err)
	}
	if pr.N != 300 || pr.Seed != 42 || pr.Checksum != dr.Checksum {
		t.Fatalf("POST through router = %+v, want n=300 seed=42 checksum=%d", pr, dr.Checksum)
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
		Backends:  []string{shedder.URL, real.URL},
		Placement: &RoundRobin{}, // first pick is backends[0], the shedder
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

	r, ts := newRouter(t, Config{
		Backends:  []string{sick.URL},
		Placement: &RoundRobin{},
	})
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
	r, ts := newRouter(t, Config{
		Backends:      urls,
		Local:         newLocal(t, 2, 64),
		FailThreshold: 2,
		FailWindow:    30 * time.Second, // stays broken for the whole test
		Timeout:       5 * time.Second,
	})

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
	if vs.Deaths < uint64(r.cfg.FailThreshold) {
		t.Fatalf("victim deaths = %d, want >= %d (breaker food)", vs.Deaths, r.cfg.FailThreshold)
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
	backends[0].Runtime().Close()
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

// TestRouterHealthzAndIndex covers the operational endpoints.
func TestRouterHealthzAndIndex(t *testing.T) {
	b := startBackend(t, 2, 8)
	r, ts := newRouter(t, Config{Backends: []string{b.URL}})
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	r.SetDraining(true)
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	r.SetDraining(false)

	var idx struct {
		Placement string `json:"placement"`
		Backends  []struct {
			URL     string `json:"url"`
			Credits int    `json:"credits"`
		} `json:"backends"`
		Local struct {
			Contexts int `json:"contexts"`
		} `json:"local"`
	}
	resp, body := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("index body %q: %v", body, err)
	}
	if idx.Placement != "least-loaded" || len(idx.Backends) != 1 || idx.Local.Contexts != 2 {
		t.Fatalf("index = %+v", idx)
	}
}
