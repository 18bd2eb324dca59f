package capserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capsule"
	"repro/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Runtime == nil {
		cfg.Runtime = capsule.New(capsule.Config{Contexts: 4, Throttle: true})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp
}

func TestConfigValidate(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 2})
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("nil Runtime accepted")
	}
	if err := (Config{Runtime: rt, QueueDepth: -1}).Validate(); err == nil {
		t.Fatal("negative QueueDepth accepted")
	}
	if err := (Config{Runtime: rt, MaxN: map[string]int{"nosuch": 10}}).Validate(); err == nil {
		t.Fatal("unknown MaxN workload accepted")
	}
	if err := (Config{Runtime: rt, MaxN: map[string]int{"quicksort": 0}}).Validate(); err == nil {
		t.Fatal("zero MaxN cap accepted")
	}
	if err := (Config{Runtime: rt, MaxN: map[string]int{"quicksort": 10}}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRunAllWorkloads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, wl := range workloads.NativeNames() {
		url := fmt.Sprintf("%s/run/%s?n=300&seed=42", ts.URL, wl)
		var first runResponse
		if resp := getJSON(t, url, &first); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", wl, resp.StatusCode)
		}
		if first.Workload != wl || first.N != 300 || first.Seed != 42 {
			t.Fatalf("%s: echo mismatch: %+v", wl, first.ServeResult)
		}
		if first.Checksum == 0 || first.Output == "" {
			t.Fatalf("%s: empty result: %+v", wl, first.ServeResult)
		}
		// Same triple again → same checksum, any interleaving.
		var second runResponse
		getJSON(t, url, &second)
		if second.Checksum != first.Checksum {
			t.Fatalf("%s: nondeterministic checksum: %d then %d", wl, first.Checksum, second.Checksum)
		}
	}
}

func TestRunPOSTBodyOverridesQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var viaGet runResponse
	getJSON(t, ts.URL+"/run/quicksort?n=256&seed=9", &viaGet)

	body := bytes.NewBufferString(`{"n": 256, "seed": 9}`)
	resp, err := http.Post(ts.URL+"/run/quicksort?n=1&seed=1", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var viaPost runResponse
	if err := json.NewDecoder(resp.Body).Decode(&viaPost); err != nil {
		t.Fatal(err)
	}
	if viaPost.N != 256 || viaPost.Seed != 9 {
		t.Fatalf("body did not override query: %+v", viaPost.ServeResult)
	}
	if viaPost.Checksum != viaGet.Checksum {
		t.Fatalf("POST checksum %d != GET checksum %d", viaPost.Checksum, viaGet.Checksum)
	}

	// A body field overrides the query even when the query value is
	// malformed: the superseded value must never be parsed.
	resp, err = http.Post(ts.URL+"/run/quicksort?n=abc", "application/json",
		bytes.NewBufferString(`{"n": 256, "seed": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body override of malformed query: status %d, want 200", resp.StatusCode)
	}
}

func TestRunErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: map[string]int{"quicksort": 1000}})
	cases := []struct {
		path string
		want int
	}{
		{"/run/nosuch?n=10", http.StatusNotFound},
		{"/run/quicksort?n=abc", http.StatusBadRequest},
		{"/run/quicksort?n=-3", http.StatusBadRequest},
		{"/run/quicksort?n=0", http.StatusBadRequest},
		{"/run/quicksort?seed=zzz", http.StatusBadRequest},
		{"/run/quicksort?n=1001", http.StatusRequestEntityTooLarge},
		{"/run/quicksort?n=1000", http.StatusOK}, // cap is inclusive
	}
	for _, tc := range cases {
		if resp := getJSON(t, ts.URL+tc.path, nil); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestShedWhenQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 2})
	// Occupy every queue slot so the next request must be shed.
	s.queue <- struct{}{}
	s.queue <- struct{}{}
	resp := getJSON(t, ts.URL+"/run/quicksort?n=100", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with a full queue, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	<-s.queue
	<-s.queue
	if resp := getJSON(t, ts.URL+"/run/quicksort?n=100", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after queue drained, want 200", resp.StatusCode)
	}
	if got := s.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	s.SetDraining(true)
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	s.SetDraining(false)
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200", resp.StatusCode)
	}
}

func TestIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var idx struct {
		Workloads []string       `json:"workloads"`
		MaxN      map[string]int `json:"max_n"`
		Contexts  int            `json:"contexts"`
	}
	if resp := getJSON(t, ts.URL+"/", &idx); resp.StatusCode != http.StatusOK {
		t.Fatalf("index = %d, want 200", resp.StatusCode)
	}
	if len(idx.Workloads) != len(workloads.NativeNames()) || idx.Contexts != 4 {
		t.Fatalf("index = %+v", idx)
	}
	if idx.MaxN["quicksort"] != DefaultMaxN {
		t.Fatalf("default quicksort cap = %d, want %d", idx.MaxN["quicksort"], DefaultMaxN)
	}
	// Dijkstra's cost is superlinear in n, so its default cap is far
	// below the linear workloads'.
	if idx.MaxN["dijkstra"] >= idx.MaxN["quicksort"] {
		t.Fatalf("dijkstra cap %d not below quicksort cap %d", idx.MaxN["dijkstra"], idx.MaxN["quicksort"])
	}
}

func TestClientGoneBeforeDispatch(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client has already hung up
	req := httptest.NewRequest("GET", "/run/quicksort?n=100", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosed {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosed)
	}
	if got := s.eps["quicksort"].byCode[3].Load(); got != 1 { // index of 499
		t.Fatalf("499 count = %d, want 1", got)
	}
}

// metricLine matches one sample line of the Prometheus text format.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
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
		samples[line[:i]] = v
	}
	return samples
}

func TestMetrics(t *testing.T) {
	// Queue deeper than the burst: this test asserts exact 200 counts,
	// so nothing may be shed.
	_, ts := newTestServer(t, Config{QueueDepth: 64})
	// Drive every endpoint, plus one 404 and one 400.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, wl := range workloads.NativeNames() {
			wg.Add(1)
			go func(wl string, i int) {
				defer wg.Done()
				http.Get(fmt.Sprintf("%s/run/%s?n=400&seed=%d", ts.URL, wl, i))
			}(wl, i)
		}
	}
	wg.Wait()
	http.Get(ts.URL + "/run/nosuch")
	http.Get(ts.URL + "/run/lzw?n=bad")

	m := scrape(t, ts.URL)
	if m["capsule_probes_total"] <= 0 {
		t.Fatalf("capsule_probes_total = %v, want > 0", m["capsule_probes_total"])
	}
	if gr := m["capsule_grant_rate"]; gr <= 0 || gr > 1 {
		t.Fatalf("capsule_grant_rate = %v, want in (0,1]", gr)
	}
	if m["capsule_contexts"] != 4 {
		t.Fatalf("capsule_contexts = %v, want 4", m["capsule_contexts"])
	}
	if m["capserve_not_found_total"] != 1 {
		t.Fatalf("capserve_not_found_total = %v, want 1", m["capserve_not_found_total"])
	}
	if m[`capserve_requests_total{workload="lzw",code="400"}`] != 1 {
		t.Fatalf("lzw 400 count = %v, want 1", m[`capserve_requests_total{workload="lzw",code="400"}`])
	}
	for _, wl := range workloads.NativeNames() {
		ok := m[fmt.Sprintf(`capserve_requests_total{workload=%q,code="200"}`, wl)]
		if ok != 8 {
			t.Fatalf("%s 200 count = %v, want 8", wl, ok)
		}
		cnt := m[fmt.Sprintf(`capserve_request_duration_seconds_count{workload=%q}`, wl)]
		if cnt != 8 {
			t.Fatalf("%s histogram count = %v, want 8", wl, cnt)
		}
		inf := m[fmt.Sprintf(`capserve_request_duration_seconds_bucket{workload=%q,le="+Inf"}`, wl)]
		if inf != cnt {
			t.Fatalf("%s +Inf bucket = %v, want %v", wl, inf, cnt)
		}
		sum := m[fmt.Sprintf(`capserve_request_duration_seconds_sum{workload=%q}`, wl)]
		if sum <= 0 {
			t.Fatalf("%s histogram sum = %v, want > 0", wl, sum)
		}
	}
}

// TestMetricsNameSet pins the names a plain server exports on /metrics,
// so adding, renaming or dropping a series is a deliberate diff here and
// in whatever dashboard reads it.
func TestMetricsNameSet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := map[string]bool{}
	for key := range scrape(t, ts.URL) {
		name, _, _ := strings.Cut(key, "{")
		got[name] = true
	}
	want := []string{
		"capsule_contexts",
		"capsule_probes_total",
		"capsule_granted_total",
		"capsule_denies_total",
		"capsule_inline_runs_total",
		"capsule_deaths_total",
		"capsule_workers_total",
		"capsule_workers_peak",
		"capsule_lock_acquires_total",
		"capsule_grant_rate",
		"capsule_free_contexts",
		"capserve_uptime_seconds",
		"capserve_queue_depth",
		"capserve_queue_occupancy",
		"capserve_shed_total",
		"capserve_not_found_total",
		"capserve_requests_total",
		"capserve_degraded_total",
		"capserve_request_duration_seconds_bucket",
		"capserve_request_duration_seconds_sum",
		"capserve_request_duration_seconds_count",
		"capserve_build_info",
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("series %s missing from /metrics", name)
		}
		delete(got, name)
	}
	for name := range got {
		t.Errorf("series %s on /metrics is not in the pinned name set", name)
	}
}

// TestHeadroomGauges asserts the instantaneous-capacity gauges a routing
// tier depends on: queue occupancy and free contexts, idle and mid-flight.
func TestHeadroomGauges(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8})
	m := scrape(t, ts.URL)
	if m["capserve_queue_occupancy"] != 0 {
		t.Fatalf("idle queue occupancy = %v, want 0", m["capserve_queue_occupancy"])
	}
	if m["capsule_free_contexts"] != 4 {
		t.Fatalf("idle free contexts = %v, want 4", m["capsule_free_contexts"])
	}
	// Hold two queue slots and two context tokens: both gauges must move.
	s.queue <- struct{}{}
	s.queue <- struct{}{}
	c1, _ := s.rt.Probe()
	c2, _ := s.rt.Probe()
	m = scrape(t, ts.URL)
	if m["capserve_queue_occupancy"] != 2 {
		t.Fatalf("occupancy = %v with 2 held slots, want 2", m["capserve_queue_occupancy"])
	}
	if m["capsule_free_contexts"] != 2 {
		t.Fatalf("free contexts = %v with 2 held tokens, want 2", m["capsule_free_contexts"])
	}
	s.rt.Release(c1)
	s.rt.Release(c2)
	<-s.queue
	<-s.queue
}

// TestHeadroomHeaders asserts every /run response advertises its queue
// headroom — the credit feed's fallback in the cluster router.
func TestHeadroomHeaders(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8})
	resp := getJSON(t, ts.URL+"/run/quicksort?n=100", nil)
	free, err := strconv.Atoi(resp.Header.Get(HeaderQueueFree))
	if err != nil || free < 0 || free > 8 {
		t.Fatalf("%s = %q, want an int in [0,8]", HeaderQueueFree, resp.Header.Get(HeaderQueueFree))
	}
	// A shed carries the headers too (queue full → zero free slots): the
	// refusal itself tells the router to stop sending.
	for i := 0; i < 8; i++ {
		s.queue <- struct{}{}
	}
	resp = getJSON(t, ts.URL+"/run/quicksort?n=100", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with full queue, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderQueueFree); got != "0" {
		t.Fatalf("shed %s = %q, want 0", HeaderQueueFree, got)
	}
	for i := 0; i < 8; i++ {
		<-s.queue
	}
}

// TestDrainingNeverShedsAdmitted is the draining race: SetDraining
// flipped while requests are mid-flight must never turn an
// already-admitted request into a 503 — draining only gates /healthz,
// admission itself is the queue's job.
func TestDrainingNeverShedsAdmitted(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 2, Throttle: true})
	s, ts := newTestServer(t, Config{Runtime: rt, QueueDepth: 64})
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		var bad atomic.Int64
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Get(fmt.Sprintf("%s/run/dijkstra?n=1500&seed=%d", ts.URL, i))
				if err != nil {
					bad.Add(1)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
			}(i)
		}
		// Wait until at least one request holds a queue slot, then flip
		// draining mid-flight, both ways.
		for len(s.queue) == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		s.SetDraining(true)
		if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz = %d while draining, want 503", resp.StatusCode)
		}
		s.SetDraining(false)
		wg.Wait()
		if bad.Load() != 0 {
			t.Fatalf("round %d: %d admitted requests failed across a draining flip", round, bad.Load())
		}
	}
}

// TestBackendCloseDrains covers the in-process backend's shutdown order:
// an in-flight request admitted before Close completes with 200, Close
// returns clean, and the listener only refuses connections afterwards.
func TestBackendCloseDrains(t *testing.T) {
	b, err := StartBackendOn(Config{Runtime: capsule.New(capsule.Config{Contexts: 2, Throttle: true}), QueueDepth: 8}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	// /healthz flips to 503 the moment draining is set, while the
	// listener is still accepting: the balancer sees the drain first.
	b.Server.SetDraining(true)
	if resp := getJSON(t, b.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	b.Server.SetDraining(false)

	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get(b.URL + "/run/dijkstra?n=2500&seed=1")
		if err != nil {
			slow <- 0
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	for len(b.Server.queue) == 0 { // admitted?
		time.Sleep(50 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("request admitted before Close finished with %d, want 200", code)
	}
	if _, err := http.Get(b.URL + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Close")
	}
	if err := b.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestBackendCloseWithSilentConn: a connection that was dialed but never
// sent a byte (a router's spare dispatch connection) carries no request,
// so it must not hold Close for net/http's 5 s new-connection grace.
func TestBackendCloseWithSilentConn(t *testing.T) {
	b, err := StartBackendOn(Config{}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	silent, err := net.Dial("tcp", strings.TrimPrefix(b.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The listener accepts in order, so once a later connection has been
	// served the silent one has been accepted too.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	if resp, err := client.Get(b.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := b.Close(ctx); err != nil {
		t.Fatalf("Close with a silent connection open: %v", err)
	}
}

// TestConcurrentLoadSharesRuntime is the in-process smoke of the serving
// claim: many concurrent requests across all endpoints on one shared
// runtime, every response 200 or 503 (shed), never anything else, and the
// runtime's pool intact afterwards.
func TestConcurrentLoadSharesRuntime(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 4, Throttle: true})
	_, ts := newTestServer(t, Config{Runtime: rt, QueueDepth: 2})
	var wg sync.WaitGroup
	var ok200, shed503, other atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl := workloads.NativeNames()[i%4]
			resp, err := http.Get(fmt.Sprintf("%s/run/%s?n=500&seed=%d", ts.URL, wl, i%8))
			if err != nil {
				other.Add(1)
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusServiceUnavailable:
				shed503.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 503", other.Load())
	}
	if ok200.Load() == 0 {
		t.Fatal("no successful responses under concurrent load")
	}
	rt.Join()
	time.Sleep(time.Millisecond) // let the 100µs death window drain
	// Pool integrity after the burst.
	var held []*capsule.Context
	for i := 0; i < 4; i++ {
		if c, ok := rt.Probe(); ok {
			held = append(held, c)
		}
	}
	if len(held) != 4 {
		t.Fatalf("pool holds %d tokens after load, want 4", len(held))
	}
	for _, c := range held {
		rt.Release(c)
	}
}
