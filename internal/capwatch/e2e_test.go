package capwatch

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
)

// TestRouterWatchCoversFleet is the E2E contract the -spawn topology
// relies on: one GET against the router's /debug/watch returns the
// router's report plus one per spawned backend — every backend
// attributable by source, every report carrying a finite burn rate,
// and (after traffic) a per-backend p99.
func TestRouterWatchCoversFleet(t *testing.T) {
	const nBackends = 3

	var backends []*capserve.Backend
	var urls []string
	samplers := make([]*Sampler, 0, nBackends+1)
	for i := 0; i < nBackends; i++ {
		rt, err := capsule.NewValidated(capsule.Config{Contexts: 2, Throttle: true})
		if err != nil {
			t.Fatalf("backend %d runtime: %v", i, err)
		}
		b, err := capserve.StartBackendOn(capserve.Config{Runtime: rt}, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("backend %d: %v", i, err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			b.Close(ctx)
			rt.Close()
		})
		backends = append(backends, b)
		urls = append(urls, b.URL)
	}

	localRT, err := capsule.NewValidated(capsule.Config{Contexts: 2, Throttle: true})
	if err != nil {
		t.Fatalf("local runtime: %v", err)
	}
	t.Cleanup(localRT.Close)
	local, err := capserve.New(capserve.Config{Runtime: localRT})
	if err != nil {
		t.Fatalf("local server: %v", err)
	}
	router, err := capcluster.New(capcluster.Config{Backends: urls, Local: local})
	if err != nil {
		t.Fatalf("router: %v", err)
	}

	// One sampler per backend, named by the backend's host:port — the
	// same label the router's per-backend gauges use, so captop can
	// join the two views — plus the router's own.
	for i, b := range backends {
		u, err := url.Parse(b.URL)
		if err != nil {
			t.Fatalf("backend %d URL: %v", i, err)
		}
		s, err := New(Config{
			Source:  u.Host,
			Runtime: b.Server.Runtime(),
			Server:  b.Server,
			Ring:    minRing,
		})
		if err != nil {
			t.Fatalf("backend %d sampler: %v", i, err)
		}
		samplers = append(samplers, s)
	}
	routerSampler, err := New(Config{
		Source:  "caprouter",
		Runtime: localRT,
		Server:  local,
		Router:  router,
		Ring:    minRing,
	})
	if err != nil {
		t.Fatalf("router sampler: %v", err)
	}
	all := append([]*Sampler{routerSampler}, samplers...)

	// Baseline tick, traffic, closing tick: the watch window needs a
	// delta to roll up.
	for _, s := range all {
		s.SampleNow()
	}
	front := httptest.NewServer(router)
	defer front.Close()
	for i := 0; i < 60; i++ {
		resp, err := http.Get(front.URL + "/run/quicksort?n=500&seed=1")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	for _, s := range all {
		s.SampleNow()
	}

	// The merged endpoint, as cmd/caprouter mounts it.
	rec := httptest.NewRecorder()
	Handler(all...).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch?window=1m", nil))
	var reps []Report
	if err := json.Unmarshal(rec.Body.Bytes(), &reps); err != nil {
		t.Fatalf("watch body: %v", err)
	}
	if len(reps) != nBackends+1 {
		t.Fatalf("router watch returned %d reports, want %d (router + every spawned backend)", len(reps), nBackends+1)
	}
	if reps[0].Source != "caprouter" || reps[0].Tier != "router" {
		t.Fatalf("first report = %s/%s, want the router's own", reps[0].Source, reps[0].Tier)
	}

	// Every backend must be covered, by the same host:port name the
	// router's backend table uses.
	sources := map[string]Report{}
	for _, r := range reps {
		sources[r.Source] = r
	}
	routerBackends := map[string]bool{}
	for _, br := range reps[0].Backends {
		routerBackends[br.Name] = true
	}
	var totalBackendReqs float64
	for i, b := range backends {
		u, _ := url.Parse(b.URL)
		rep, ok := sources[u.Host]
		if !ok {
			t.Fatalf("backend %d (%s) missing from router watch; sources: %v", i, u.Host, keys(sources))
		}
		if rep.Tier != "server" {
			t.Fatalf("backend %s tier = %q", u.Host, rep.Tier)
		}
		if !finite(rep.SLO.BurnRate) || !finite(rep.SLO.Fast.Burn) || !finite(rep.SLO.Slow.Burn) {
			t.Fatalf("backend %s burn rates not finite: %+v", u.Host, rep.SLO)
		}
		if !routerBackends[u.Host] {
			t.Fatalf("router report's backend table missing %s: %+v", u.Host, reps[0].Backends)
		}
		// Rates divide by at least one tick (WindowClampedS), so the
		// delta reconstructs from the effective divisor, not the raw
		// sub-tick span between the two manual snapshots above.
		eff := rep.WindowActualS
		if rep.WindowClampedS > 0 {
			eff = rep.WindowClampedS
		}
		totalBackendReqs += rep.Rates.RequestsPerSec * eff
	}
	// The fleet served the traffic (least-loaded placement spreads 60
	// requests over 3 idle backends; all of it lands remotely).
	if totalBackendReqs < 50 {
		t.Fatalf("backend reports account for %.0f requests, want most of 60", totalBackendReqs)
	}
	// Traffic happened, so the merged distribution has a p99.
	if reps[0].Latency.Count == 0 || reps[0].Latency.P99MS <= 0 {
		t.Fatalf("router latency rollup empty after traffic: %+v", reps[0].Latency)
	}
	for _, br := range reps[0].Backends {
		if br.DispatchesPerSec > 0 && br.P99MS <= 0 {
			t.Fatalf("backend %s dispatched but reports no p99: %+v", br.Name, br)
		}
	}
}

func finite(f float64) bool { return f == f && f < 1e308 && f > -1e308 }

func keys(m map[string]Report) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWatchOnServerMux exercises the Mount + AddMetrics wiring end to
// end on a standalone capserve: /debug/watch serves the report and
// /metrics carries the capwatch_* series next to the server's own.
func TestWatchOnServerMux(t *testing.T) {
	rt, err := capsule.NewValidated(capsule.Config{Contexts: 2, Throttle: true})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Close)
	srv, err := capserve.New(capserve.Config{Runtime: rt})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	s, err := New(Config{Runtime: rt, Server: srv, Ring: minRing})
	if err != nil {
		t.Fatalf("sampler: %v", err)
	}
	srv.Mount("GET /debug/watch", Handler(s))
	srv.AddMetrics(s.WriteMetrics)
	s.SampleNow()

	ts := httptest.NewServer(srv)
	defer ts.Close()

	var reps []Report
	if err := json.Unmarshal(get(t, ts.URL+"/debug/watch?window=30s"), &reps); err != nil || len(reps) != 1 {
		t.Fatalf("watch on server mux: %v, %v", reps, err)
	}
	metrics := string(get(t, ts.URL+"/metrics"))
	for _, want := range []string{"capwatch_slo_burn_rate", "capserve_build_info{", "capsule_probes_total"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}
