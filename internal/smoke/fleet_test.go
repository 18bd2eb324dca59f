//go:build smoke

package smoke

import (
	"bytes"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/captrace"
	"repro/internal/capwatch"
)

const spawned, debugAddr = `spawned backend \d+ at (http://\S+) `, `debug planes on (http://\S+)/debug/`

// TestLoad: a lone capserve holds 200 req/s of a closed-loop burst on 4
// contexts and stays inside a 500ms-p99 SLO budget (capscope top exits
// 3 when it is exhausted), as its own sampler sees it.
func TestLoad(t *testing.T) {
	s := start(t, "capserve", "-contexts", "4", "-slo-p99", "500ms", "-slo-avail", "0.99")
	capload(t, "-url", s.URL, "-d", "5s", "-c", "8", "-n", "500", "-min-throughput", "200")()
	reps := decode[[]capwatch.Report](t, scope(t, nil, "top", "-once", "-json", s.URL))
	if len(reps) != 1 || reps[0].Source != "capserve" || !(reps[0].Latency.P99MS > 0) ||
		!(reps[0].Rates.GrantRate > 0 && reps[0].Rates.GrantRate <= 1) {
		t.Errorf("capscope top: %+v", reps)
	}
	s.term()
}

// TestWatch: capscope top over a spawned fleet's router names the
// router first and every backend, with finite burns, and the load
// landed in the windows.
func TestWatch(t *testing.T) {
	r := start(t, "capserve", "-spawn", "3", "-watch-interval", "500ms", "-slo-fast", "10s", "-slo-slow", "30s")
	capload(t, "-url", r.URL, "-d", "5s", "-c", "8", "-n", "500")()
	time.Sleep(time.Second) // one more tick, so the closing samples include the load
	reps := decode[[]capwatch.Report](t, scope(t, nil, "top", "-window", "30s", "-once", "-json", r.URL))
	scope(t, nil, "top", "-window", "30s", "-once", r.URL)
	if len(reps) < 4 || reps[0].Tier != "router" || reps[0].Source != "caprouter" || !(reps[0].Rates.RequestsPerSec > 0) {
		t.Fatalf("capscope top: %+v", reps)
	}
	servers, served := 0, 0.0
	for _, rep := range reps {
		for _, v := range []float64{rep.SLO.BurnRate, rep.SLO.Fast.Burn, rep.SLO.Slow.Burn} {
			if !(v >= 0) || math.IsInf(v, 0) || rep.Build.Go == "" {
				t.Errorf("%s: burn %v, build %+v", rep.Source, v, rep.Build)
			}
		}
		if rep.Tier == "server" {
			servers, served = servers+1, served+rep.Rates.RequestsPerSec
			if !slices.ContainsFunc(reps[0].Backends, func(b capwatch.BackendReport) bool { return b.Name == rep.Source }) {
				t.Errorf("backend %s is not in the router's gauge table %+v", rep.Source, reps[0].Backends)
			}
		}
	}
	if servers < 3 || !(served > 0) {
		t.Errorf("%d backend reports serving %v req/s, want >= 3 and > 0", servers, served)
	}
	metrics(t, r.URL, `capwatch_slo_burn_rate{window="fast",slo="availability"}*`,
		"capwatch_samples_total", "caprouter_build_info{version=*")
	r.term()
}

// TestTrace: a traced exemplar's waterfall spans the router and a
// serving tier, /debug/trace names every member, and capscope trace
// rebuilds the waterfall and summarises the rings.
func TestTrace(t *testing.T) {
	// The default 4096-slot rings hold only milliseconds of spans under this load.
	r := start(t, "capserve", "-spawn", "2", "-trace", "-trace-sample", "4", "-trace-buf", "65536")
	rep := capload(t, "-url", r.URL, "-d", "5s", "-c", "8", "-n", "1000", "-trace", "8")()
	kinds := map[captrace.Kind]bool{}
	for _, e := range rep.TraceWaterfall {
		kinds[e.Kind] = true
	}
	if !kinds[captrace.KRouteRecv] || !kinds[captrace.KReqAdmit] {
		t.Errorf("waterfall of %s: kinds %v, want route_recv and req_admit", rep.TraceID, kinds)
	}
	sources, members := []string{}, []string{"caprouter"}
	for _, s := range debug[[]captrace.Snapshot](t, r.URL+"/debug/trace?n=1") {
		sources = append(sources, s.Source)
	}
	for _, u := range r.all(spawned) {
		members = append(members, strings.TrimPrefix(u, "http://"))
	}
	if len(members) != 3 || !slices.Equal(sources, members) {
		t.Errorf("/debug/trace sources %v, want %v", sources, members)
	}
	if out := scope(t, nil, "trace", "-id", rep.TraceID, r.URL); !strings.Contains(out, "route_recv") || !strings.Contains(out, "req_admit") {
		t.Errorf("capscope trace -id:\n%s", out)
	}
	if out := scope(t, nil, "trace", r.URL); !strings.Contains(out, "busiest traces") {
		t.Errorf("capscope trace:\n%s", out)
	}
	r.term()
}

// TestChaos storms a spawned fleet through /debug/fault — a slow
// backend, a partitioned one, one leaving and rejoining — with zero
// failed client requests, then drains clean mid-partition.
func TestChaos(t *testing.T) {
	r := start(t, "capserve", "-spawn", "3", "-fault", "-fault-seed", "7", "-debug-addr", "127.0.0.1:0")
	v, faults := r.all(spawned), r.all(debugAddr)[0]+"/debug/fault"
	if f := debug[struct{ Seed uint64 }](t, faults); f.Seed != 7 {
		t.Errorf("fault seed %d, want 7", f.Seed)
	}
	fault := func(kind string, b int, extra string) {
		call(t, faults, `{"kind":"`+kind+`","backend":"`+strings.TrimPrefix(v[b], "http://")+`",`+extra+`}`)
	}
	gated := func(d string) func() loadReport {
		return capload(t, "-url", r.URL, "-d", d, "-c", "12", "-n", "500", "-max-error-rate", "0")
	}

	// Slow, not dead: the error breaker never sees it, the slow ejector must.
	fault("latency", 0, `"delay_ms":80,"jitter_ms":20,"for_ms":6000`)
	reps := []loadReport{gated("6s")()}
	metrics(t, r.URL, perBackend("caprouter_backend_ejections_total", v[:1])...)

	// Partitioned: attempt deadlines turn stalls into bounded deaths.
	fault("partition", 1, `"for_ms":4000`)
	reps = append(reps, gated("5s")())
	metrics(t, r.URL, perBackend("caprouter_backend_deaths_total", v[1:2])...)

	// Churn: backend 2 leaves (connection refused) and rejoins, twice.
	wait := gated("7s")
	time.Sleep(time.Second)
	fault("down", 2, `"for_ms":1500`)
	time.Sleep(3 * time.Second)
	fault("down", 2, `"for_ms":1500`)
	reps = append(reps, wait())
	metrics(t, r.URL, perBackend("caprouter_backend_deaths_total", v[2:])...)
	for i, rep := range reps {
		if rep.Failed != 0 {
			t.Errorf("storm %d: %d failed requests, want 0", i+1, rep.Failed)
		}
	}

	fault("partition", 1, `"for_ms":10000`)
	time.Sleep(500 * time.Millisecond)
	r.term()
}

// TestCluster fronts three capserve processes with small queues: load
// spreads over all three with remote grants, and after one is killed
// clients see no error while the router falls back locally.
func TestCluster(t *testing.T) {
	bs, urls := capserves(t, "-contexts", "2", "-queue", "4")
	r := start(t, "capserve", "-queue", "64", "-backends", strings.Join(urls, ","))
	mix := []string{"-url", r.URL, "-d", "5s", "-n", "500", "-mix", "quicksort=4,dijkstra=2,lzw=1"}
	capload(t, append(mix, "-c", "12")...)()
	metrics(t, r.URL, append(perBackend("caprouter_backend_dispatches_total", urls), "caprouter_remote_granted_total")...)

	bs[1].kill()
	if rep := capload(t, append(mix, "-c", "16")...)(); rep.Errors != 0 {
		t.Errorf("a killed backend leaked to clients: %d errors", rep.Errors)
	}
	// Exit 3, a burned budget, is not what this phase asserts.
	out := scope(t, []int{3}, "top", "-window", "4s", "-once", "-json", r.URL)
	if rt := decode[[]capwatch.Report](t, out)[0].Router; rt == nil || !(rt.TierRemotePerSec > 0) || !(rt.FallbackRate > 0) {
		t.Errorf("router %+v: want remote traffic and local fallbacks", rt)
	}
	metrics(t, r.URL, "caprouter_deaths_total", "caprouter_local_fallbacks_total", "capsule_free_contexts*")
	r.term()
	bs[0].term()
	bs[2].term()
}

// TestIncident stages an SLO burn on a spawned fleet with every member's
// recorder armed: bundles land on the router and a backend, and capscope
// renders them live and, after the drain, from disk.
func TestIncident(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundles")
	r := start(t, "capserve", "-spawn", "3", "-fault", "-debug-addr", "127.0.0.1:0",
		"-watch-interval", "250ms", "-slo-p99", "50ms", "-slo-fast", "5s", "-slo-slow", "10s",
		"-incident-dir", dir, "-incident-cooldown", "5s", "-incident-max", "4")
	if !strings.Contains(r.log(), "incident recorders armed") {
		t.Fatalf("recorders not armed:\n%s", r.log())
	}
	call(t, r.all(debugAddr)[0]+"/debug/fault", `{"kind":"latency","delay_ms":200,"for_ms":25000}`)
	capload(t, "-url", r.URL, "-d", "20s", "-c", "16", "-n", "500")()

	lists := debug[[]capwatch.IncidentList](t, r.URL+"/debug/incident")
	if len(lists) != 4 || lists[0].Source != "caprouter" || len(lists[0].Bundles) == 0 {
		t.Fatalf("/debug/incident: %+v", lists)
	}
	for _, l := range lists {
		for _, m := range l.Bundles {
			if m.Trigger == "" || !slices.Contains(m.Files, "watch.json") || !slices.Contains(m.Files, "heap.pprof") {
				t.Errorf("%s bundle %s: trigger %q, files %v", l.Source, m.ID, m.Trigger, m.Files)
			}
		}
	}
	if !slices.ContainsFunc(lists[1:], func(l capwatch.IncidentList) bool { return len(l.Bundles) > 0 }) {
		t.Error("no incident bundle on any backend")
	}
	id := lists[0].Bundles[len(lists[0].Bundles)-1].ID
	burned := regexp.MustCompile(`trigger +slo_budget_exhausted`)
	if out := scope(t, nil, "incident", r.URL); !strings.Contains(out, "slo_budget_exhausted") {
		t.Errorf("capscope incident:\n%s", out)
	}
	if out := scope(t, nil, "incident", "-id", id, r.URL); !burned.MatchString(out) ||
		!strings.Contains(out, "exhausted=true") || !strings.Contains(out, "heap profile") ||
		!regexp.MustCompile(`backends \(3\)\n +127\.0\.0\.1:\d+ +dispatched=`).MatchString(out) {
		t.Errorf("capscope incident -id:\n%s", out)
	}
	metrics(t, r.URL, "capscope_incidents_total")
	r.term()

	if out := scope(t, nil, "incident", dir); !strings.Contains(out, "slo_budget_exhausted") {
		t.Errorf("capscope incident on the bundle dir:\n%s", out)
	}
	out := scope(t, nil, "incident", "-id", id, dir)
	heap := regexp.MustCompile(`heap profile: go tool pprof -top (\S+)`).FindStringSubmatch(out)
	if !burned.MatchString(out) || heap == nil {
		t.Fatalf("capscope incident -id on the bundle dir:\n%s", out)
	}
	if top, err := exec.Command("go", "tool", "pprof", "-top", heap[1]).Output(); err != nil || !bytes.Contains(top, []byte("flat%")) {
		t.Errorf("go tool pprof -top %s: %v\n%s", heap[1], err, top)
	}
}

// TestRouterFailover: two caprouter replicas over three capserve
// processes both apply every backend's credit feed, and killing one
// mid-storm costs clients failovers, never a failed request.
func TestRouterFailover(t *testing.T) {
	bs, urls := capserves(t, "-contexts", "2", "-queue", "8")
	fleet := strings.Join(urls, ",")
	r1, r2 := start(t, "capserve", "-backends", fleet), start(t, "capserve", "-backends", fleet)
	time.Sleep(3 * time.Second) // steady state: the push plane carries the fleet
	for _, r := range []*proc{r1, r2} {
		metrics(t, r.URL, perBackend("caprouter_backend_feed_deltas_total", urls)...)
	}

	wait := capload(t, "-targets", r1.URL+","+r2.URL, "-d", "8s", "-c", "12", "-n", "500", "-max-error-rate", "0")
	time.Sleep(3 * time.Second)
	r1.kill()
	if rep := wait(); rep.Failed != 0 || rep.Failovers == 0 {
		t.Errorf("replica kill: %d failed requests, %d failovers; want 0 and > 0", rep.Failed, rep.Failovers)
	}
	r2.term()
	for _, b := range bs {
		b.term()
	}
}
