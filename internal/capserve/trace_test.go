package capserve

// Tests for the serving-tier trace plumbing: a client-supplied
// X-Capsule-Trace-ID survives to the response and to the tracer's rings
// (the ISSUE's header-survival requirement), injected context identity
// wins over headers, sampling stays off the unsampled path, the
// serving tier's events reach /debug/trace under the member's name, and
// the capsule_* series round-trip through promtext.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/promtext"
)

func newTracedServer(t *testing.T, sample int) (*Server, *httptest.Server, *captrace.Tracer) {
	t.Helper()
	// Rings big enough that one divide-heavy request (hundreds of probe
	// events) can't overwrite its own admit event mid-test.
	tr := captrace.New(2, 4096)
	rt := capsule.New(capsule.Config{Contexts: 4, Throttle: true, Tracer: tr})
	t.Cleanup(rt.Close)
	s, ts := newTestServer(t, Config{Runtime: rt, TraceSample: sample})
	return s, ts, tr
}

// TestTraceIDSurvivesToResponse: the exact ID a client stamps comes back
// on the response, and the request's full lifecycle — serving events AND
// the runtime events of its division group — lands in the tracer under
// that ID.
func TestTraceIDSurvivesToResponse(t *testing.T) {
	_, ts, tr := newTracedServer(t, 1<<30) // sampling ~never: only adoption can trace
	const id = "00c0ffee00c0ffee"

	req, _ := http.NewRequest("GET", ts.URL+"/run/quicksort?n=2000&seed=7", nil)
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

	tid, err := captrace.ParseID(id)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[captrace.Kind]int{}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == tid {
			kinds[ev.Kind]++
		}
	}
	if kinds[captrace.KReqAdmit] != 1 || kinds[captrace.KReqDone] != 1 {
		t.Fatalf("serving events = %v, want one admit and one done", kinds)
	}
	// The workload divides (or at least offers): the group must have
	// tagged runtime events with the same ID.
	runtime := kinds[captrace.KProbeGranted] + kinds[captrace.KProbeDenied] + kinds[captrace.KDivideInline]
	if runtime == 0 {
		t.Fatalf("no runtime events under the request's trace ID: %v", kinds)
	}
}

// TestTraceContextInjectionWins: an identity placed in the request
// context (the router's in-process fallback path) overrides the header.
func TestTraceContextInjectionWins(t *testing.T) {
	s, _, tr := newTracedServer(t, 1<<30)
	const injected, header = uint64(0x1111), "00000000deadbeef"

	req := httptest.NewRequest("GET", "/run/quicksort?n=500", nil)
	req.Header.Set(captrace.HeaderTraceID, header)
	req = req.WithContext(captrace.WithRequest(req.Context(), injected, true))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(captrace.HeaderTraceID); got != captrace.FormatID(injected) {
		t.Fatalf("response ID = %q, want the injected %q", got, captrace.FormatID(injected))
	}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == 0xdeadbeef {
			t.Fatalf("header ID was traced despite context injection: %+v", ev)
		}
	}

	// An injected identity with traced=false records nothing but still
	// echoes its ID.
	req = httptest.NewRequest("GET", "/run/quicksort?n=500", nil)
	req = req.WithContext(captrace.WithRequest(req.Context(), 0x2222, false))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get(captrace.HeaderTraceID); got != captrace.FormatID(0x2222) {
		t.Fatalf("unsampled injected ID not echoed: %q", got)
	}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == 0x2222 {
			t.Fatalf("untraced injected identity recorded an event: %+v", ev)
		}
	}
}

// TestTraceDisabled: with no tracer anywhere, no ID is minted and no
// header echoed.
func TestTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := getJSON(t, ts.URL+"/run/quicksort?n=500", nil)
	if got := resp.Header.Get(captrace.HeaderTraceID); got != "" {
		t.Fatalf("untraced server echoed an ID: %q", got)
	}
}

// TestDebugTraceEndpoint: the serving tier's events reach /debug/trace
// as the debug plane mounts it — a JSON array of one snapshot under the
// member's name, ?n= capping it, a bad n rejected.
func TestDebugTraceEndpoint(t *testing.T) {
	tr := captrace.New(1, 64)
	rt := capsule.New(capsule.Config{Contexts: 2, Tracer: tr})
	t.Cleanup(rt.Close)
	s, ts := newTestServer(t, Config{Runtime: rt, TraceSample: 1})
	s.Mount("GET /debug/trace", captrace.Handler(captrace.Source{Name: "backend-7", Tracer: tr}))

	for i := 0; i < 3; i++ {
		getJSON(t, fmt.Sprintf("%s/run/quicksort?n=500&seed=%d", ts.URL, i), nil)
	}
	var snaps []captrace.Snapshot
	resp := getJSON(t, ts.URL+"/debug/trace", &snaps)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if len(snaps) != 1 || snaps[0].Source != "backend-7" {
		t.Fatalf("want one snapshot named backend-7, got %d: %+v", len(snaps), snaps)
	}
	if snap := snaps[0]; len(snap.Events) == 0 || len(snap.Shards) != 1 {
		t.Fatalf("empty snapshot after traced requests: %d events, %d shards", len(snap.Events), len(snap.Shards))
	}
	for _, ev := range snaps[0].Events {
		if ev.Source != "backend-7" {
			t.Fatalf("event source = %q", ev.Source)
		}
	}

	var capped []captrace.Snapshot
	getJSON(t, ts.URL+"/debug/trace?n=2", &capped)
	if len(capped) != 1 || len(capped[0].Events) != 2 {
		t.Fatalf("n=2 returned %+v", capped)
	}
	if resp := getJSON(t, ts.URL+"/debug/trace?n=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n accepted: %d", resp.StatusCode)
	}
}

// TestCapsuleSeriesPromtextRoundTrip: the capsule_* series parse back
// through promtext and agree with the runtime's own accounting.
func TestCapsuleSeriesPromtextRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	getJSON(t, ts.URL+"/run/quicksort?n=5000", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := promtext.Parse(body)

	rt := s.Runtime()
	st := rt.Stats() // the request has joined: the counters are at rest
	if st.Probes == 0 {
		t.Fatal("the request made no division offers")
	}
	for name, want := range map[string]float64{
		"capsule_contexts":                        float64(rt.Contexts()),
		"capsule_probes_total":                    float64(st.Probes),
		"capsule_granted_total":                   float64(st.Granted),
		`capsule_denies_total{reason="no_ctx"}`:   float64(st.NoCtxDenies),
		`capsule_denies_total{reason="throttle"}`: float64(st.ThrottleDenies),
		"capsule_inline_runs_total":               float64(st.InlineRuns),
		"capsule_deaths_total":                    float64(st.Deaths),
		"capsule_workers_total":                   float64(st.TotalWorkers),
		"capsule_workers_peak":                    float64(st.PeakWorkers),
		"capsule_lock_acquires_total":             float64(st.LockAcquires),
		"capsule_free_contexts":                   float64(rt.FreeContexts()),
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s: exposition %v (present %v), stats %v", name, got, ok, want)
		}
	}
	if got := samples["capsule_grant_rate"]; math.Abs(got-st.GrantRate()) > 1e-5 {
		t.Errorf("capsule_grant_rate: exposition %v, stats %v", got, st.GrantRate())
	}
	// The identity the exposition inherits from Stats: probes are the
	// sum of their outcomes, label by label.
	var denies float64
	for key, v := range samples {
		if _, ok := promtext.LabelValue(key, "capsule_denies_total", "reason"); ok {
			denies += v
		}
	}
	if samples["capsule_probes_total"] != samples["capsule_granted_total"]+denies {
		t.Errorf("probes %v != granted %v + denies %v",
			samples["capsule_probes_total"], samples["capsule_granted_total"], denies)
	}
}

// TestShedTraced: a shed carries the client's trace ID on its 503 and
// records a KReqShed event.
func TestShedTraced(t *testing.T) {
	tr := captrace.New(1, 64)
	rt := capsule.New(capsule.Config{Contexts: 2, Tracer: tr})
	t.Cleanup(rt.Close)
	s, err := New(Config{Runtime: rt, QueueDepth: 1, TraceSample: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s.queue <- struct{}{} // fill the queue by hand: the next request sheds

	const id = "0000000000005bed"
	req := httptest.NewRequest("GET", "/run/quicksort?n=100", nil)
	req.Header.Set(captrace.HeaderTraceID, id)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get(captrace.HeaderTraceID); got != id {
		t.Fatalf("shed response ID = %q, want %q", got, id)
	}
	tid, _ := captrace.ParseID(id)
	found := false
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == tid && ev.Kind == captrace.KReqShed {
			found = true
		}
	}
	if !found {
		t.Fatal("shed not recorded against the client's trace ID")
	}
}

// TestTraceSnapshotBodyIsJSON pins the endpoint's content type and the
// decodability of its raw body as a snapshot array (what cmd/captrace
// ingests).
func TestTraceSnapshotBodyIsJSON(t *testing.T) {
	s, ts, tr := newTracedServer(t, 1)
	s.Mount("GET /debug/trace", captrace.Handler(captrace.Source{Name: "capserve", Tracer: tr}))
	getJSON(t, ts.URL+"/run/lzw?n=800", nil)
	resp, err := http.Get(ts.URL + "/debug/trace?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var snaps []captrace.Snapshot
	if err := json.Unmarshal(body, &snaps); err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot body not a one-element array (%v):\n%s", err, body)
	}
}
