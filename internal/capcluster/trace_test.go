package capcluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/promtext"
)

// Tests for the cluster-tier trace plumbing: a client-stamped
// X-Capsule-Trace-ID produces a route span in the router's tracer AND
// (via header propagation) a serving span in the backend's — the
// cross-process half of the ISSUE's waterfall — the fallback path
// classifies its tier from the degraded marker, sampling decisions are
// not leaked downstream, and the new dispatch histogram and tier
// counter appear on /metrics.

// tracedLocal is newRouter's default local tier with its runtime
// recording into tr — the router's tracer is its local tier's.
func tracedLocal(t *testing.T, tr *captrace.Tracer) *capserve.Server {
	t.Helper()
	rt := capsule.New(capsule.Config{Contexts: 2, Throttle: true, Tracer: tr})
	t.Cleanup(rt.Close)
	s, err := capserve.New(capserve.Config{Runtime: rt, QueueDepth: 32})
	if err != nil {
		t.Fatalf("capserve.New: %v", err)
	}
	return s
}

func routeKinds(tr *captrace.Tracer, tid uint64) map[captrace.Kind]int {
	got := map[captrace.Kind]int{}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == tid {
			got[ev.Kind]++
		}
	}
	return got
}

// TestRouteSpanWaterfall drives one traced request through a real
// backend and asserts both halves of the waterfall: the router's
// recv → dispatch → served span, and the backend's admit span under
// the same ID (proving the header crossed the process boundary).
func TestRouteSpanWaterfall(t *testing.T) {
	backendTracer := captrace.New(2, 4096)
	b, err := capserve.StartBackendOn(capserve.Config{
		Runtime:    capsule.New(capsule.Config{Contexts: 2, Throttle: true, Tracer: backendTracer}),
		QueueDepth: 16,
	}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	t.Cleanup(func() { b.Kill(); b.Server.Runtime().Close() })

	routerTracer := captrace.New(1, 256)
	r, ts := newRouter(t, Config{
		Backends: []string{b.URL},
		Local:    tracedLocal(t, routerTracer),
	})

	const id = "00000000cafe0001"
	req, _ := http.NewRequest("GET", ts.URL+"/run/quicksort?n=500&seed=3", nil)
	req.Header.Set(captrace.HeaderTraceID, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(captrace.HeaderTraceID); got != id {
		t.Fatalf("response trace ID = %q, want %q", got, id)
	}
	if got := resp.Header.Get(HeaderRoute); got != "remote" {
		t.Fatalf("route %q, want remote", got)
	}

	tid, _ := captrace.ParseID(id)
	span := routeKinds(routerTracer, tid)
	for _, k := range []captrace.Kind{captrace.KRouteRecv, captrace.KRouteDispatch, captrace.KRouteServed} {
		if span[k] != 1 {
			t.Errorf("router span: kind %v recorded %d times, want 1 (all: %v)", k, span[k], span)
		}
	}
	// The dispatch span carries the routing decision: backend 0, with
	// the credit snapshot that justified the grant.
	for _, ev := range routerTracer.Snapshot("router", 0).Events {
		if ev.Kind == captrace.KRouteDispatch && ev.TID == tid {
			if ev.A != 0 {
				t.Errorf("dispatch backend index = %d, want 0", ev.A)
			}
			if ev.B == 0 {
				t.Error("dispatch credit snapshot = 0: a grant with no credits")
			}
		}
	}

	// The backend adopted the propagated header: its serving span hangs
	// off the same ID in its own rings.
	back := routeKinds(backendTracer, tid)
	if back[captrace.KReqAdmit] != 1 || back[captrace.KReqDone] != 1 {
		t.Fatalf("backend span = %v, want one admit and one done under the routed ID", back)
	}

	// The satellite series: one observation in the backend's dispatch
	// histogram, one remote-tier outcome.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples := promtext.Parse(rec.Body.Bytes())
	histKey := `capcluster_dispatch_duration_seconds_count{backend="` + r.Backends()[0].Name() + `"}`
	if samples[histKey] != 1 {
		t.Errorf("%s = %v, want 1", histKey, samples[histKey])
	}
	if samples[`caprouter_fallback_tier_total{tier="remote"}`] != 1 {
		t.Errorf("remote tier count = %v, want 1", samples[`caprouter_fallback_tier_total{tier="remote"}`])
	}
}

// TestFallbackTierClassification: with the fleet refusing, the local
// tier serves and the router classifies which rung did the work —
// local_runtime while the local pool has headroom, sequential once the
// request degrades (sniffed from X-Capserve-Degraded).
func TestFallbackTierClassification(t *testing.T) {
	// Throttle off: with it on, the first request's token release counts
	// as a death and throttle-refuses the drain loop's probes for a
	// DeathWindow, leaving the pool full and the second request granted.
	tr := captrace.New(1, 256)
	rt := capsule.New(capsule.Config{Contexts: 2, Tracer: tr})
	t.Cleanup(rt.Close)
	local, err := capserve.New(capserve.Config{Runtime: rt, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, ts := newRouter(t, Config{Local: local})

	const id1 = "00000000cafe0002"
	req, _ := http.NewRequest("GET", ts.URL+"/run/quicksort?n=300&seed=1", nil)
	req.Header.Set(captrace.HeaderTraceID, id1)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(capserve.HeaderDegraded) != "" {
		t.Fatal("undrained runtime served degraded")
	}
	if got := r.tierLocalRuntime.Load(); got != 1 {
		t.Fatalf("local_runtime tier count = %d, want 1", got)
	}

	// Drain the pool: the next fallback must degrade to sequential.
	var holds []*capsule.Context
	for {
		c, ok := rt.Probe()
		if !ok {
			break
		}
		holds = append(holds, c)
	}
	const id2 = "00000000cafe0003"
	req, _ = http.NewRequest("GET", ts.URL+"/run/quicksort?n=300&seed=2", nil)
	req.Header.Set(captrace.HeaderTraceID, id2)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for _, c := range holds {
		rt.Release(c)
	}
	if resp.Header.Get(capserve.HeaderDegraded) != "1" {
		t.Fatal("drained runtime did not mark the response degraded")
	}
	if got := r.tierSequential.Load(); got != 1 {
		t.Fatalf("sequential tier count = %d, want 1", got)
	}

	// Each fallback span carries its tier.
	wantTier := map[string]uint16{id1: captrace.TierLocalRuntime, id2: captrace.TierSequential}
	for idStr, tier := range wantTier {
		tid, _ := captrace.ParseID(idStr)
		found := false
		for _, ev := range tr.Snapshot("router", 0).Events {
			if ev.TID == tid && ev.Kind == captrace.KRouteFallback {
				found = true
				if ev.A != tier {
					t.Errorf("fallback tier for %s = %d, want %d", idStr, ev.A, tier)
				}
			}
		}
		if !found {
			t.Errorf("no fallback span recorded for %s", idStr)
		}
	}
}

// TestSampledOutNotPropagated: a router-minted ID that lost the
// sampling draw is echoed to the client but NOT forwarded to the
// backend — a backend adopting a header always traces, which would
// override the router's sampling decision.
func TestSampledOutNotPropagated(t *testing.T) {
	var sawHeader atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(captrace.HeaderTraceID) != "" {
			sawHeader.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{}")
	}))
	defer backend.Close()

	_, ts := newRouter(t, Config{
		Backends: []string{backend.URL},
		Local:    tracedLocal(t, captrace.New(1, 64).SampleEvery(1<<30)), // minted IDs ~never sampled
	})
	resp, _ := get(t, ts.URL+"/run/quicksort?n=100&seed=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(captrace.HeaderTraceID) == "" {
		t.Fatal("minted ID not echoed to the client")
	}
	if sawHeader.Load() != 0 {
		t.Fatal("sampled-out ID was propagated to the backend")
	}

	// An adopted (client-stamped) ID IS propagated, regardless of the
	// sampling rate.
	req, _ := http.NewRequest("GET", ts.URL+"/run/quicksort?n=100&seed=2", nil)
	req.Header.Set(captrace.HeaderTraceID, "00000000cafe0004")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if sawHeader.Load() != 1 {
		t.Fatal("adopted ID was not propagated to the backend")
	}
}

// TestRouterDebugTrace: the router's tracer, mounted on its local
// server, serves through the router an array of one snapshot under the
// router's name; an untraced router mounts nothing and 404s.
func TestRouterDebugTrace(t *testing.T) {
	tr := captrace.New(1, 64).SampleEvery(1)
	r, ts := newRouter(t, Config{Local: tracedLocal(t, tr)})
	r.Local().Mount("GET /debug/trace", captrace.Handler(captrace.Source{Name: "edge-1", Tracer: tr}))
	get(t, ts.URL+"/run/quicksort?n=200&seed=1")

	var snaps []captrace.Snapshot
	resp, body := get(t, ts.URL+"/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatalf("snapshot body: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Source != "edge-1" {
		t.Fatalf("want one snapshot named edge-1, got %d: %.200s", len(snaps), body)
	}
	if len(snaps[0].Events) == 0 {
		t.Fatal("empty snapshot after a traced request")
	}

	_, ts2 := newRouter(t, Config{})
	if resp, _ := get(t, ts2.URL+"/debug/trace"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced router /debug/trace = %d, want 404", resp.StatusCode)
	}
}

// TestRouterDebugTraceMergesLocals pins the -spawn topology's one-stop
// endpoint: the router's /debug/trace over itself and its in-process
// backend is an array, router first, and one fetch of the router URL
// holds both halves of a traced request under one ID.
func TestRouterDebugTraceMergesLocals(t *testing.T) {
	backendTracer := captrace.New(2, 4096)
	b, err := capserve.StartBackendOn(capserve.Config{
		Runtime:    capsule.New(capsule.Config{Contexts: 2, Tracer: backendTracer}),
		QueueDepth: 16,
	}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	t.Cleanup(func() { b.Kill(); b.Server.Runtime().Close() })
	backend := strings.TrimPrefix(b.URL, "http://")

	routerTracer := captrace.New(1, 256)
	r, ts := newRouter(t, Config{Backends: []string{b.URL}, Local: tracedLocal(t, routerTracer)})
	r.Local().Mount("GET /debug/trace", captrace.Handler(
		captrace.Source{Name: "caprouter", Tracer: routerTracer},
		captrace.Source{Name: backend, Tracer: backendTracer},
	))

	const id = "00000000cafe0004"
	req, _ := http.NewRequest("GET", ts.URL+"/run/quicksort?n=500&seed=5", nil)
	req.Header.Set(captrace.HeaderTraceID, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	httpResp, body := get(t, ts.URL+"/debug/trace")
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", httpResp.StatusCode)
	}
	var snaps []captrace.Snapshot
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatalf("snapshot array: %v", err)
	}
	if len(snaps) != 2 || snaps[0].Source != "caprouter" || snaps[1].Source != backend {
		t.Fatalf("got %d snapshots %.200s; want caprouter, %s", len(snaps), body, backend)
	}

	type span struct {
		source string
		kind   captrace.Kind
	}
	tid, _ := captrace.ParseID(id)
	seen := map[span]bool{}
	for _, ev := range captrace.MergeEvents(snaps...) {
		if ev.TID == tid {
			seen[span{ev.Source, ev.Kind}] = true
		}
	}
	for _, want := range []span{{"caprouter", captrace.KRouteRecv}, {"caprouter", captrace.KRouteServed}, {backend, captrace.KReqAdmit}, {backend, captrace.KReqDone}} {
		if !seen[want] {
			t.Errorf("merged trace lacks %v under the request's ID", want)
		}
	}
}
