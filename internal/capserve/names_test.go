package capserve_test

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capdebug"
	"repro/internal/capserve"
	"repro/internal/capsule"
)

// family is one metric family as /metrics declares it: its TYPE, the
// label keys its samples carry (sorted, comma-joined) and its HELP text.
type family struct {
	typ, labels, help string
}

// families pins every family a router with a debug plane exports on
// /metrics: its own caprouter_* and capcluster_* series, its local tier's
// capsule_* and capserve_* series, and the capwatch_* and capscope_*
// series of its sampler and recorder. A plain capserve exports the
// capsule_* and capserve_* ones. Adding, renaming or dropping a series,
// a label or a HELP text is a deliberate diff here and in whatever
// dashboard reads it.
var families = map[string]family{
	"capsule_contexts":                        {"gauge", "", "Context-token pool size (the SOMT hardware context count)."},
	"capsule_probes_total":                    {"counter", "", "Division probes (nthr attempts)."},
	"capsule_granted_total":                   {"counter", "", "Probes that reserved a context token."},
	"capsule_denies_total":                    {"counter", "reason", "Refused probes by reason."},
	"capsule_deaths_total":                    {"counter", "", "Worker terminations (kthr)."},
	"capsule_workers_total":                   {"counter", "", "Workers ever spawned."},
	"capsule_workers_peak":                    {"gauge", "", "Maximum simultaneously live workers."},
	"capsule_lock_acquires_total":             {"counter", "", "Lock-table acquisitions (mlock)."},
	"capsule_grant_rate":                      {"gauge", "", `Fraction of probes granted (the paper's "% divisions allowed").`},
	"capsule_free_contexts":                   {"gauge", "", "Currently unreserved context tokens (instantaneous division headroom)."},
	"capserve_uptime_seconds":                 {"gauge", "", "Seconds since the server was built."},
	"capserve_queue_depth":                    {"gauge", "", "Bounded accept-queue capacity."},
	"capserve_queue_occupancy":                {"gauge", "", "Requests currently holding an accept-queue slot."},
	"capserve_shed_total":                     {"counter", "", "Requests shed with 503 because the accept queue was full."},
	"capserve_not_found_total":                {"counter", "", "Requests for unknown workloads."},
	"capserve_requests_total":                 {"counter", "code,workload", "Completed requests by workload and status code."},
	"capserve_degraded_total":                 {"counter", "workload", "Requests admitted without a free context and run sequentially."},
	"capserve_request_duration_seconds":       {"histogram", "le,workload", "Successful request duration."},
	"capserve_build_info":                     {"gauge", "go,gomaxprocs,version", "Build metadata; the value is always 1."},
	"caprouter_backends":                      {"gauge", "", "Configured backend count."},
	"caprouter_uptime_seconds":                {"gauge", "", "Seconds since the router was built."},
	"caprouter_requests_total":                {"counter", "", "Run requests received."},
	"caprouter_remote_probes_total":           {"counter", "", "Remote probes (cluster nthr attempts)."},
	"caprouter_remote_granted_total":          {"counter", "", "Remote probes that reserved a backend credit."},
	"caprouter_remote_denies_total":           {"counter", "reason", "Refused remote probes by reason."},
	"caprouter_remote_served_total":           {"counter", "", "Responses proxied back from backends."},
	"caprouter_remote_sheds_total":            {"counter", "", "Backend 503s absorbed by retry/fallback."},
	"caprouter_deaths_total":                  {"counter", "", "Backend failures (cluster kthr)."},
	"caprouter_local_fallbacks_total":         {"counter", "", "Requests degraded to the local runtime."},
	"caprouter_client_gone_total":             {"counter", "", "Clients that hung up mid-route."},
	"caprouter_client_faults_total":           {"counter", "", "Requests answered 4xx on any rung (client faults, no SLO budget spent)."},
	"caprouter_remote_grant_rate":             {"gauge", "", `Fraction of remote probes granted (cluster "% divisions allowed").`},
	"caprouter_fallback_rate":                 {"gauge", "", "Fraction of requests the fleet could not take."},
	"caprouter_backend_credits":               {"gauge", "backend", "Current credit ceiling."},
	"caprouter_backend_inflight":              {"gauge", "backend", "Dispatches currently holding a credit."},
	"caprouter_backend_broken":                {"gauge", "backend", "1 while the failure breaker denies probes."},
	"caprouter_backend_dispatches_total":      {"counter", "backend", "Granted probes sent to the wire."},
	"caprouter_backend_served_total":          {"counter", "backend", "Responses proxied from this backend."},
	"caprouter_backend_deaths_total":          {"counter", "backend", "Failures charged to this backend."},
	"caprouter_backend_sheds_total":           {"counter", "backend", "503 sheds from this backend."},
	"caprouter_backend_ejections_total":       {"counter", "backend", "Slow-backend ejections (p99 outlier vs fleet median)."},
	"caprouter_backend_bad_headers_total":     {"counter", "backend", "Rejected credit advertisements (headers or feed deltas)."},
	"caprouter_backend_feed_connected":        {"gauge", "backend", "1 while a credit-feed subscription is open."},
	"caprouter_backend_feed_deltas_total":     {"counter", "backend", "Push credit deltas applied to the gauge."},
	"caprouter_backend_feed_reconnects_total": {"counter", "backend", "Credit-feed subscriptions opened."},
	"caprouter_backend_stale_decays_total":    {"counter", "backend", "Gauge decays toward the default after every credit source went quiet."},
	"capcluster_dispatch_duration_seconds":    {"histogram", "backend,le", "Remote dispatch duration, relayed responses only (deaths/timeouts excluded)."},
	"caprouter_fallback_tier_total":           {"counter", "tier", "Successful requests by the tier that served them."},
	"caprouter_build_info":                    {"gauge", "go,gomaxprocs,version", "Build metadata; the value is always 1."},
	"capwatch_samples_total":                  {"counter", "", "Snapshots taken since the sampler was built."},
	"capwatch_ring_slots":                     {"gauge", "", "Snapshot ring capacity."},
	"capwatch_interval_seconds":               {"gauge", "", "Sampling tick interval."},
	"capwatch_slo_target_p99_seconds":         {"gauge", "", "Latency objective the p99 must stay under."},
	"capwatch_slo_availability_objective":     {"gauge", "", "Success-ratio objective."},
	"capwatch_slo_burn_rate":                  {"gauge", "slo,window", "Error-budget burn rate by window and objective (1 = on pace to exhaust)."},
	"capwatch_slo_budget_exhausted":           {"gauge", "", "1 while both burn windows are at or above 1."},
	"capwatch_window_p99_seconds":             {"gauge", "window", "Histogram-delta p99 over each burn window."},
	"capwatch_window_availability":            {"gauge", "window", "Success ratio over each burn window."},
	"capwatch_go_goroutines":                  {"gauge", "", "Goroutine count at the last tick."},
	"capwatch_go_heap_live_bytes":             {"gauge", "", "Live heap at the last tick."},
	"capwatch_go_gc_pause_p99_seconds":        {"gauge", "", "GC pause p99 (since process start) at the last tick."},
	"capwatch_go_sched_latency_p99_seconds":   {"gauge", "", "Scheduler latency p99 (since process start) at the last tick."},
	"capscope_incidents_total":                {"counter", "", "Incident bundles captured since process start."},
	"capscope_capture_errors_total":           {"counter", "", "Incident captures that failed to land on disk."},
	"capscope_bundles":                        {"gauge", "", "Incident bundles resident in the on-disk ring."},
}

var labelKey = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

// exposition reads a /metrics body into its families. It fails the test
// on a family with other than one HELP and one TYPE line, or a sample
// of no declared family.
func exposition(t *testing.T, body string) map[string]family {
	t.Helper()
	got := map[string]family{}
	helps, types := map[string]int{}, map[string]int{}
	keys := map[string]map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helps[name]++
			f := got[name]
			f.help = help
			got[name] = f
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name]++
			f := got[name]
			f.typ = typ
			got[name] = f
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		fam := name
		if _, ok := got[fam]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && got[base].typ == "histogram" {
					fam = base
				}
			}
		}
		if _, ok := got[fam]; !ok {
			t.Errorf("sample %q belongs to no declared family", line)
			continue
		}
		if keys[fam] == nil {
			keys[fam] = map[string]bool{}
		}
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			keys[fam][m[1]] = true
		}
	}
	for name, f := range got {
		if helps[name] != 1 || types[name] != 1 {
			t.Errorf("family %s has %d HELP and %d TYPE lines, want one each", name, helps[name], types[name])
		}
		var ks []string
		for k := range keys[name] {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		f.labels = strings.Join(ks, ",")
		got[name] = f
	}
	return got
}

func checkFamilies(t *testing.T, got map[string]family, want func(name string) bool) {
	t.Helper()
	for name, f := range families {
		if !want(name) {
			continue
		}
		if g, ok := got[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		} else if g != f {
			t.Errorf("family %s = %+v, want %+v", name, g, f)
		}
	}
	for name, g := range got {
		if _, ok := families[name]; !ok || !want(name) {
			t.Errorf("family %s %+v on /metrics is not in the pinned set", name, g)
		}
	}
}

// TestMetricsNameSet pins the exposition of a plain capserve and of a
// router with one backend and a debug plane (sampler and recorder armed).
func TestMetricsNameSet(t *testing.T) {
	scrape := func(h http.Handler) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		if w.Code != 200 {
			t.Fatalf("/metrics: %d", w.Code)
		}
		return w.Body.String()
	}

	t.Run("capserve", func(t *testing.T) {
		rt := capsule.New(capsule.Config{Contexts: 2})
		t.Cleanup(rt.Close)
		srv, err := capserve.New(capserve.Config{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		checkFamilies(t, exposition(t, scrape(srv)), func(name string) bool {
			return strings.HasPrefix(name, "capsule_") || strings.HasPrefix(name, "capserve_")
		})
	})

	t.Run("caprouter", func(t *testing.T) {
		b, err := capserve.StartBackendOn(capserve.Config{}, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			b.Close(ctx)
		})
		fs := flag.NewFlagSet("names", flag.ContinueOnError)
		dbg := capdebug.Register(fs)
		dir := t.TempDir()
		if err := fs.Parse([]string{"-incident-dir", dir}); err != nil {
			t.Fatal(err)
		}
		plane, err := dbg.NewPlane()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(plane.Close)
		rt, err := dbg.NewRuntime(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		local, err := capserve.New(capserve.Config{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		router, err := capcluster.New(capcluster.Config{Backends: []string{b.URL}, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plane.Add("caprouter", rt.Tracer(), capdebug.Tiers{Runtime: rt, Server: local, Router: router}, filepath.Join(dir, "caprouter")); err != nil {
			t.Fatal(err)
		}
		checkFamilies(t, exposition(t, scrape(router)), func(string) bool { return true })
	})
}
