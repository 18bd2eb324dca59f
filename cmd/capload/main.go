// Command capload drives a running capserve with sustained load and
// reports client-side throughput and latency percentiles alongside the
// server's division grant rate (scraped from /metrics before and after
// the run) — so the paper's "% divisions allowed" is measured under real
// serving traffic.
//
// Two load models:
//
//   - closed loop (default): -c workers, each firing its next request as
//     soon as the previous one completes — throughput is offered by
//     completion;
//   - open loop (-rate R): arrivals on a fixed schedule of R req/s
//     regardless of completions — the model that actually overloads a
//     server and exercises 503 shedding.
//
// Traffic is round-robin across -workloads, or weighted with -mix
// (e.g. -mix quicksort=4,dijkstra=2,lzw=1) so cluster benchmarks can
// exercise heterogeneous load instead of one endpoint.
//
// Pointed at a caprouter instead of a capserve, capload is router-aware:
// it diffs the caprouter_* series across the run and reports the remote
// grant count, local fallback rate and per-backend dispatch spread, with
// optional gates (-max-fallback-rate, -min-backends-hit) for CI.
// -max-error-rate gates on the client's own view — the fraction of
// requests that failed outright (transport error, 5xx, 499; a 4xx is
// the client's conversation with the API, not a failure) — which is
// what the chaos jobs assert is zero: server metrics can claim every
// death was absorbed, but only the client knows.
//
// Usage:
//
//	capload -url http://localhost:8080 -d 10s -c 16
//	capload -url http://localhost:8080 -d 10s -rate 500 -workloads quicksort,lzw
//	capload -url http://localhost:8090 -d 10s -mix quicksort=4,dijkstra=2,lzw=1
//	capload -d 5s -c 8 -min-throughput 200   # CI smoke: exit 2 below 200 req/s
//	capload -url http://localhost:8090 -d 5s -max-fallback-rate 0.5 -min-backends-hit 3
//	capload -url http://localhost:8090 -d 10s -max-error-rate 0   # chaos: zero failed requests
//	capload -targets http://localhost:8090,http://localhost:8091 -d 10s -max-error-rate 0  # replicated routers with failover
//
// With -trace N, every Nth request carries a fresh X-Capsule-Trace-ID,
// and after the run capload pulls the target's /debug/trace snapshot and
// prints the p99-latency exemplar's event waterfall — the slowest-1%
// request's actual journey through admission, division and (via a
// router) dispatch. An empty waterfall exits 2: the header made the
// round trip but no events landed, so tracing is broken end to end.
//
//	capload -url http://localhost:8080 -d 5s -trace 16
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capdebug"
	"repro/internal/captrace"
	"repro/internal/httptune"
	"repro/internal/profiling"
	"repro/internal/promtext"
)

type options struct {
	url         string
	targets     []string
	wls         []string
	n           int
	seed        int64
	seeds       int64
	c           int
	rate        float64
	d           time.Duration
	timeout     time.Duration
	verify      bool
	minTput     float64
	maxErrRate  float64
	maxFallback float64
	minBackends int
	sloP99      time.Duration
	sloAvail    float64
	jsonOut     bool
	traceEvery  int
}

// result is one request's outcome.
type result struct {
	code    int // 0 = transport error
	latency time.Duration
}

// runResponse is the slice of capserve's response body capload reads.
type runResponse struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	Checksum uint64 `json:"checksum"`
	Degraded bool   `json:"degraded"`
}

func main() {
	var o options
	var wlList, mix string
	flag.StringVar(&o.url, "url", "http://localhost:8080", "capserve or caprouter base URL")
	targetsFlag := flag.String("targets", "", "comma-separated replicated caprouter base URLs with health-aware failover (overrides -url)")
	flag.StringVar(&wlList, "workloads", "quicksort,dijkstra,lzw,perceptron", "comma-separated workloads, round-robin")
	flag.StringVar(&mix, "mix", "", "weighted workload mix, e.g. quicksort=4,dijkstra=2,lzw=1 (overrides -workloads)")
	flag.IntVar(&o.n, "n", 2000, "input size per request")
	flag.Int64Var(&o.seed, "seed", 1, "base input seed")
	flag.Int64Var(&o.seeds, "seeds", 64, "seed cycle length (request i uses seed + i mod seeds)")
	flag.IntVar(&o.c, "c", 8, "closed-loop concurrency (workers)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	flag.DurationVar(&o.d, "d", 5*time.Second, "load duration")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request timeout")
	flag.BoolVar(&o.verify, "verify", true, "assert same (workload,n,seed) always returns the same checksum")
	flag.Float64Var(&o.minTput, "min-throughput", 0, "exit 2 if 2xx throughput falls below this (req/s)")
	flag.Float64Var(&o.maxErrRate, "max-error-rate", -1, "exit 2 if the fraction of failed requests (transport errors, 5xx, 499 — anything but 2xx/4xx) exceeds this; 0 = zero tolerance (negative = no gate)")
	flag.Float64Var(&o.maxFallback, "max-fallback-rate", -1, "router-aware: exit 2 if the run's local-fallback rate exceeds this (negative = no gate)")
	flag.IntVar(&o.minBackends, "min-backends-hit", 0, "router-aware: exit 2 if fewer backends received a dispatch during the run")
	flag.DurationVar(&o.sloP99, "slo-p99", 0, "SLO latency target: exit 2 if over 1% of the run's successes exceed it (0 = no SLO gate unless -slo-avail is set)")
	flag.Float64Var(&o.sloAvail, "slo-avail", 0, "SLO availability objective in (0,1): exit 2 if the run's error ratio burns the whole budget (0 = no SLO gate unless -slo-p99 is set)")
	flag.BoolVar(&o.jsonOut, "json", false, "emit a machine-readable JSON report")
	flag.IntVar(&o.traceEvery, "trace", 0, "stamp a trace ID on every Nth request and print the p99 exemplar's waterfall from /debug/trace (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the load generator to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopCPU, perr := profiling.StartCPU(*cpuprofile)
	if perr != nil {
		fail("%v", perr)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fail("%v", err)
		}
	}()
	// The gate exits below bypass deferred calls, so they flush profiles
	// explicitly first: a failing run is exactly the one worth profiling.
	flushProfiles := func() {
		stopCPU()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fail("%v", err)
		}
	}

	if mix != "" {
		wls, err := parseMix(mix)
		if err != nil {
			fail("%v", err)
		}
		o.wls = wls
	} else {
		o.wls = strings.Split(wlList, ",")
		for i := range o.wls {
			o.wls[i] = strings.TrimSpace(o.wls[i])
		}
	}
	if o.n <= 0 || o.c <= 0 || o.d <= 0 || o.seeds <= 0 || o.rate < 0 {
		fail("invalid flags: n, c, d and seeds must be positive, rate non-negative")
	}

	// -targets generalizes -url to a replicated router fleet: requests go
	// to the preferred replica, and a replica that fails at the transport
	// (refused, reset, timed out) costs the request one bounded attempt
	// before the next one — the client-side edge of the zero-failed-
	// request failover contract. With one target this degenerates to the
	// old single-URL path exactly.
	if *targetsFlag != "" {
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				o.targets = append(o.targets, t)
			}
		}
	}
	if len(o.targets) == 0 {
		o.targets = []string{o.url}
	}
	o.url = o.targets[0]
	replicas := newReplicaSet(o.targets)

	// net/http's default transport keeps only 2 idle connections per host:
	// a closed loop at -c 8 re-dials on most requests and measures
	// connection churn, not the server. Size the idle pool to the run's
	// worst-case concurrency — the worker count closed-loop, a generous
	// fixed cap open-loop (where in-flight is bounded by rate × latency,
	// not by -c).
	idle := o.c
	if o.rate > 0 && idle < 256 {
		idle = 256
	}
	if idle < 64 {
		idle = 64
	}
	client := httptune.Client(idle, o.timeout)
	before, scrapedURL, berr := scrapeAny(client, o.targets)

	// tracedReq is one request capload chose to trace: its stamped ID
	// and client-observed outcome, the pool the p99 exemplar is drawn
	// from after the run.
	type tracedReq struct {
		id      uint64
		wl      string
		code    int
		latency time.Duration
	}
	var (
		mu       sync.Mutex
		results  []result
		traced   []tracedReq
		checks   = map[string]uint64{}
		mismatch int
	)
	record := func(r result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	fire := func(i int64) {
		wl := o.wls[int(i)%len(o.wls)]
		seed := o.seed + i%o.seeds
		var tid uint64
		if o.traceEvery > 0 && i%int64(o.traceEvery) == 0 {
			tid = captrace.NewID()
		}
		// Walk the replica set, preferred first: a replica that fails at
		// the transport costs one attempt and the next one absorbs the
		// request. The recorded latency spans the whole walk — failover
		// is supposed to be invisible in the error column, not in p99.
		var resp *http.Response
		start := time.Now()
		for attempt, ti := range replicas.order() {
			url := fmt.Sprintf("%s/run/%s?n=%d&seed=%d", replicas.urls[ti], wl, o.n, seed)
			req, rerr := http.NewRequest(http.MethodGet, url, nil)
			if rerr != nil {
				record(result{0, 0})
				return
			}
			if tid != 0 {
				req.Header.Set(captrace.HeaderTraceID, captrace.FormatID(tid))
			}
			var err error
			resp, err = client.Do(req)
			if err == nil {
				replicas.markUp(ti)
				if attempt > 0 {
					replicas.failovers.Add(1)
				}
				break
			}
			replicas.markDown(ti)
			resp = nil
		}
		lat := time.Since(start)
		if resp == nil {
			// Every replica failed: only now is the request a failure.
			record(result{0, lat})
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		record(result{resp.StatusCode, lat})
		if tid != 0 {
			mu.Lock()
			traced = append(traced, tracedReq{tid, wl, resp.StatusCode, lat})
			mu.Unlock()
		}
		if o.verify && resp.StatusCode == http.StatusOK {
			var rr runResponse
			if json.Unmarshal(body, &rr) == nil {
				key := fmt.Sprintf("%s/%d/%d", rr.Workload, rr.N, rr.Seed)
				mu.Lock()
				if prev, seen := checks[key]; seen && prev != rr.Checksum {
					mismatch++
				} else {
					checks[key] = rr.Checksum
				}
				mu.Unlock()
			}
		}
	}

	mode := "closed"
	start := time.Now()
	deadline := start.Add(o.d)
	if o.rate > 0 {
		mode = "open"
		openLoop(o, deadline, fire)
	} else {
		closedLoop(o, deadline, fire)
	}
	elapsed := time.Since(start)
	// Throughput is judged over the load window, not the post-deadline
	// drain: a single straggler riding out its timeout must not deflate
	// the sustained rate (and spuriously trip -min-throughput).
	window := elapsed
	if window > o.d {
		window = o.d
	}

	// The after scrape must hit the same replica as the before scrape for
	// the counter deltas to mean anything; if that replica died mid-run
	// (the router-chaos scenario), fall through to a survivor — delta()
	// discards pairs whose counters went backwards.
	afterTargets := o.targets
	if scrapedURL != "" {
		afterTargets = append([]string{scrapedURL}, o.targets...)
	}
	after, _, aerr := scrapeAny(client, afterTargets)

	// Aggregate.
	var ok2xx, errs int
	byCode := map[int]int{}
	lats := make([]time.Duration, 0, len(results))
	for _, r := range results {
		byCode[r.code]++
		if r.code >= 200 && r.code < 300 {
			ok2xx++
			lats = append(lats, r.latency)
		} else {
			errs++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	tput := float64(ok2xx) / window.Seconds()

	// Failed requests from the *client's* view: transport errors (code
	// 0), 5xx, 499 — anything that is neither a success nor the client's
	// own 4xx conversation with the API. This is what the chaos gates
	// assert is zero: server metrics can claim every death was absorbed,
	// but only the client knows.
	var failed int
	for code, n := range byCode {
		if (code >= 200 && code < 300) || (code >= 400 && code < 500 && code != 499) {
			continue
		}
		failed += n
	}
	var failedRate float64
	if len(results) > 0 {
		failedRate = float64(failed) / float64(len(results))
	}

	report := map[string]any{
		"mode": mode, "url": o.url, "workloads": o.wls, "n": o.n,
		"duration_s": elapsed.Seconds(), "total": len(results),
		"ok_2xx": ok2xx, "errors": errs, "by_code": codeKeys(byCode),
		"throughput_rps":      tput,
		"failed":              failed,
		"failed_rate":         failedRate,
		"latency_p50_ms":      ms(pct(lats, 0.50)),
		"latency_p95_ms":      ms(pct(lats, 0.95)),
		"latency_p99_ms":      ms(pct(lats, 0.99)),
		"latency_max_ms":      ms(pct(lats, 1)),
		"checksum_mismatches": mismatch,
	}
	if len(o.targets) > 1 {
		report["targets"] = o.targets
		report["failovers"] = replicas.failovers.Load()
	}
	// Counters going backwards mean the server restarted (or a balancer
	// swapped instances) between scrapes: the pair is unusable, omit the
	// server_* keys rather than report underflowed garbage.
	scrapesOK := berr == nil && aerr == nil
	if dp, ok := delta(before, after, "capsule_probes_total"); scrapesOK && ok {
		if dg, ok := delta(before, after, "capsule_granted_total"); ok {
			report["server_probes"] = uint64(dp)
			report["server_granted"] = uint64(dg)
			if dp > 0 {
				report["server_grant_rate"] = dg / dp
			}
		}
	}
	// Server-side latency: the same histogram-pair delta arithmetic
	// capwatch's rollups use (internal/promtext), applied to the run's
	// before/after /metrics scrapes — so the report carries the server's
	// own distribution next to the client-observed one, and the gap
	// between them is the network plus queueing the client added.
	if scrapesOK {
		bBounds, bCum := promtext.HistogramBuckets(before, "capserve_request_duration_seconds")
		aBounds, aCum := promtext.HistogramBuckets(after, "capserve_request_duration_seconds")
		if aCum != nil && len(bBounds) == len(aBounds) {
			for _, q := range []struct {
				key string
				q   float64
			}{{"server_latency_p50_ms", 0.50}, {"server_latency_p95_ms", 0.95}, {"server_latency_p99_ms", 0.99}} {
				if v, ok := promtext.DeltaQuantile(aBounds, bCum, aCum, q.q); ok {
					report[q.key] = v * 1e3
				}
			}
		}
	}

	// SLO verdict over the run window, client-side: the same burn-rate
	// arithmetic capwatch applies on the server, judged from what the
	// client actually experienced. Valid requests exclude client faults
	// (4xx); errors are transport failures and 5xx. The latency SLI is
	// judged over successes, target-p99 style: up to 1% may exceed the
	// target before the budget burns at 1.
	sloGate := o.sloP99 > 0 || o.sloAvail > 0
	sloExhausted := false
	var sloBurn float64
	if sloGate {
		target := o.sloP99
		if target <= 0 {
			target = 150 * time.Millisecond
		}
		objective := o.sloAvail
		if objective <= 0 {
			objective = 0.99
		}
		if objective > 0.9999 {
			objective = 0.9999 // a run of finite requests cannot resolve tighter
		}
		var clientFaults, serverErrs int
		for code, n := range byCode {
			switch {
			case code >= 400 && code < 500:
				clientFaults += n
			case code == 0 || code >= 500:
				serverErrs += n
			}
		}
		valid := len(results) - clientFaults
		availability := 1.0
		if valid > 0 {
			availability = 1 - float64(serverErrs)/float64(valid)
		}
		over := 0
		for _, l := range lats {
			if l > target {
				over++
			}
		}
		fracOver := 0.0
		if len(lats) > 0 {
			fracOver = float64(over) / float64(len(lats))
		}
		availBurn, latBurn := 0.0, 0.0
		if valid > 0 {
			availBurn = (1 - availability) / (1 - objective)
			latBurn = fracOver / 0.01
		}
		sloBurn = availBurn
		if latBurn > sloBurn {
			sloBurn = latBurn
		}
		sloExhausted = sloBurn >= 1
		report["slo"] = map[string]any{
			"target_p99_ms":          ms(target),
			"availability_objective": objective,
			"valid_requests":         valid,
			"errors":                 serverErrs,
			"availability":           availability,
			"frac_over_target":       fracOver,
			"availability_burn":      availBurn,
			"latency_burn":           latBurn,
			"burn_rate":              sloBurn,
			"exhausted":              sloExhausted,
		}
	}

	// Router awareness: a caprouter target exposes caprouter_* series;
	// diff them into the cluster-scope report (remote grants, fallback
	// rate, per-backend spread) the -max-fallback-rate and
	// -min-backends-hit gates judge.
	var fallbackRate = -1.0
	backendsHit := -1
	sawRouter := false
	if _, isRouter := after["caprouter_requests_total"]; scrapesOK && isRouter {
		sawRouter = true
		dreq, rok := delta(before, after, "caprouter_requests_total")
		dgrant, gok := delta(before, after, "caprouter_remote_granted_total")
		dfall, fok := delta(before, after, "caprouter_local_fallbacks_total")
		if rok && gok && fok {
			report["router_requests"] = uint64(dreq)
			report["router_remote_grants"] = uint64(dgrant)
			report["router_local_fallbacks"] = uint64(dfall)
			if dreq > 0 {
				fallbackRate = dfall / dreq
				report["router_fallback_rate"] = fallbackRate
			}
		}
		spread := map[string]uint64{}
		backendsHit = 0
		for key, v := range after {
			name, ok := promtext.LabelValue(key, "caprouter_backend_dispatches_total", "backend")
			if !ok {
				continue
			}
			d := v - before[key]
			if d < 0 {
				d = v // the router restarted mid-run; report its absolute count
			}
			spread[name] = uint64(d)
			if d > 0 {
				backendsHit++
			}
		}
		report["router_backend_dispatches"] = spread
		report["router_backends_hit"] = backendsHit
	}

	// Trace exemplar: pick the p99-latency traced request and pull its
	// event waterfall from the target's /debug/trace — the slowest-1%
	// request's actual lifecycle, not an average.
	var waterfall []captrace.Event
	var exemplar uint64
	var exemplarLat time.Duration
	if o.traceEvery > 0 {
		var ok2 []tracedReq
		for _, tr := range traced {
			if tr.code >= 200 && tr.code < 300 {
				ok2 = append(ok2, tr)
			}
		}
		if len(ok2) == 0 {
			flushProfiles()
			fail("-trace %d set but no traced request succeeded", o.traceEvery)
		}
		byLat := append([]tracedReq(nil), ok2...)
		sort.Slice(byLat, func(i, j int) bool { return byLat[i].latency < byLat[j].latency })
		pick := byLat[int(0.99*float64(len(byLat)-1))]
		// One URL yields every tier: a router's /debug/trace carries its
		// spawned backends' snapshots after its own.
		snaps, terr := capdebug.Get[[]captrace.Snapshot](client, o.url+"/debug/trace")
		if terr != nil {
			flushProfiles()
			fail("-trace: fetching /debug/trace: %v (tracing not armed on the target?)", terr)
		}
		waterfall = eventsFor(snaps, pick.id)
		if tierSpan(waterfall) < tierFull {
			// The p99 exemplar may predate the rings' retention: one
			// traced request records an event per division point, so a
			// few thousand offered divisions wrap a default-sized ring
			// in milliseconds. Walk back from the most recently traced
			// success — the freshest possible — looking for the most
			// complete waterfall still resident: all three tiers if any
			// request's span survived whole, else serving-tier, else any
			// events at all. If every ID comes back empty, tracing is
			// broken end to end — the gate below exits 2.
			best := tierSpan(waterfall)
			for i := len(ok2) - 1; i >= 0 && best < tierFull; i-- {
				if evs := eventsFor(snaps, ok2[i].id); tierSpan(evs) > best {
					pick, waterfall, best = ok2[i], evs, tierSpan(evs)
				}
			}
		}
		exemplar, exemplarLat = pick.id, pick.latency
		report["trace_id"] = captrace.FormatID(exemplar)
		report["trace_event_count"] = len(waterfall)
		report["trace_waterfall"] = waterfall
	}

	if o.jsonOut {
		json.NewEncoder(os.Stdout).Encode(report)
	} else {
		fmt.Printf("capload: %s loop, %s against %s (workloads %s, n=%d)\n",
			mode, elapsed.Round(time.Millisecond), o.url, strings.Join(o.wls, ","), o.n)
		fmt.Printf("requests: total=%d 2xx=%d errors=%d by-code=%v\n", len(results), ok2xx, errs, codeKeys(byCode))
		if len(o.targets) > 1 {
			fmt.Printf("targets: %d replicas, failovers=%d\n", len(o.targets), replicas.failovers.Load())
		}
		fmt.Printf("throughput: %.1f req/s (2xx)\n", tput)
		fmt.Printf("latency: p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			ms(pct(lats, 0.50)), ms(pct(lats, 0.95)), ms(pct(lats, 0.99)), ms(pct(lats, 1)))
		if p99, ok := report["server_latency_p99_ms"]; ok {
			fmt.Printf("server latency (histogram delta): p50=%.2fms p95=%.2fms p99=%.2fms\n",
				report["server_latency_p50_ms"], report["server_latency_p95_ms"], p99)
		}
		if s, ok := report["slo"].(map[string]any); ok {
			fmt.Printf("slo: availability=%.4f (objective %.4g) frac-over-target=%.4f burn=%.2f exhausted=%v\n",
				s["availability"], s["availability_objective"], s["frac_over_target"], s["burn_rate"], s["exhausted"])
		}
		if dp, ok := report["server_probes"]; ok {
			line := fmt.Sprintf("server: Δprobes=%v Δgranted=%v", dp, report["server_granted"])
			if gr, ok := report["server_grant_rate"]; ok {
				line += fmt.Sprintf(" grant-rate=%.3f%%", gr.(float64)*100)
			}
			fmt.Println(line + " (from /metrics)")
		}
		if dr, ok := report["router_requests"]; ok {
			line := fmt.Sprintf("router: Δrequests=%v Δremote-grants=%v Δfallbacks=%v",
				dr, report["router_remote_grants"], report["router_local_fallbacks"])
			if fallbackRate >= 0 {
				line += fmt.Sprintf(" fallback-rate=%.3f%%", fallbackRate*100)
			}
			if backendsHit >= 0 {
				line += fmt.Sprintf(" backends-hit=%d", backendsHit)
			}
			fmt.Println(line)
		}
		if o.traceEvery > 0 {
			fmt.Printf("trace exemplar %s (client latency %.2fms):\n", captrace.FormatID(exemplar), ms(exemplarLat))
			if len(waterfall) == 0 {
				fmt.Println("  (no events — tracing broken end to end)")
			}
			t0 := int64(0)
			if len(waterfall) > 0 {
				t0 = waterfall[0].TS
			}
			for _, ev := range waterfall {
				src := ev.Source
				if src == "" {
					src = "-"
				}
				fmt.Printf("  +%9.1fµs %-16s %-14s %s\n", float64(ev.TS-t0)/1e3, src, ev.Kind, ev.Detail())
			}
		}
		if mismatch > 0 {
			fmt.Printf("VERIFY FAILED: %d checksum mismatches\n", mismatch)
		}
	}

	if mismatch > 0 {
		flushProfiles()
		os.Exit(3)
	}
	if ok2xx == 0 {
		flushProfiles()
		fail("no successful responses")
	}
	if o.minTput > 0 && tput < o.minTput {
		flushProfiles()
		fmt.Fprintf(os.Stderr, "capload: throughput %.1f req/s below required %.1f\n", tput, o.minTput)
		os.Exit(2)
	}
	if o.maxErrRate >= 0 && failedRate > o.maxErrRate {
		flushProfiles()
		fmt.Fprintf(os.Stderr, "capload: failed-request rate %.4f (%d/%d) above allowed %.4f\n",
			failedRate, failed, len(results), o.maxErrRate)
		os.Exit(2)
	}
	if o.maxFallback >= 0 {
		switch {
		case !sawRouter:
			flushProfiles()
			fail("-max-fallback-rate set but %s exposes no caprouter_* series (not a caprouter?)", o.url)
		case fallbackRate < 0:
			// The series exist but the before/after pair is unusable: the
			// router restarted mid-run, or no requests were measured.
			flushProfiles()
			fmt.Fprintf(os.Stderr, "capload: fallback rate unmeasurable (router restarted mid-run, or zero routed requests)\n")
			os.Exit(2)
		case fallbackRate > o.maxFallback:
			flushProfiles()
			fmt.Fprintf(os.Stderr, "capload: fallback rate %.3f above allowed %.3f\n", fallbackRate, o.maxFallback)
			os.Exit(2)
		}
	}
	if o.minBackends > 0 {
		if !sawRouter {
			flushProfiles()
			fail("-min-backends-hit set but %s exposes no caprouter_* series (not a caprouter?)", o.url)
		}
		if backendsHit < o.minBackends {
			flushProfiles()
			fmt.Fprintf(os.Stderr, "capload: only %d backends dispatched to, want >= %d\n", backendsHit, o.minBackends)
			os.Exit(2)
		}
	}
	if sloGate && sloExhausted {
		flushProfiles()
		fmt.Fprintf(os.Stderr, "capload: SLO budget exhausted: burn rate %.2f >= 1\n", sloBurn)
		os.Exit(2)
	}
	if o.traceEvery > 0 && len(waterfall) == 0 {
		// The IDs round-tripped (the requests succeeded) but no events
		// landed under them: the trace pipeline is broken somewhere
		// between header adoption and the rings.
		flushProfiles()
		fmt.Fprintf(os.Stderr, "capload: empty waterfall for every traced request\n")
		os.Exit(2)
	}
}

// tierSpan scores how much of the degradation ladder a waterfall still
// covers: 0 = nothing resident, 1 = some events, 2 = reached the
// serving tier (an admission/shed/done event), 3 = tierFull — serving
// tier plus runtime events (a granted request's probe/handoff/
// death, or a refused division's deny/inline). Route spans alone score
// 1: the downstream half was already overwritten.
const tierFull = 3

func tierSpan(evs []captrace.Event) int {
	if len(evs) == 0 {
		return 0
	}
	score := 1
	serving, runtime := false, false
	for _, ev := range evs {
		switch ev.Kind {
		case captrace.KReqAdmit, captrace.KReqShed, captrace.KReqDegraded, captrace.KReqDone:
			serving = true
		case captrace.KProbeGranted, captrace.KProbeDenied, captrace.KDivideInline,
			captrace.KHandoff, captrace.KDeath:
			runtime = true
		}
	}
	if serving {
		score = 2
		if runtime {
			score = tierFull
		}
	}
	return score
}

// eventsFor filters the merged snapshots down to one trace ID's
// time-ordered timeline.
func eventsFor(snaps []captrace.Snapshot, tid uint64) []captrace.Event {
	var evs []captrace.Event
	for _, ev := range captrace.MergeEvents(snaps...) {
		if ev.TID == tid {
			evs = append(evs, ev)
		}
	}
	return evs
}

// parseMix expands "quicksort=4,dijkstra=2,lzw=1" into a weighted
// round-robin slot list: the request stream cycles through it, so the
// realized traffic matches the ratios exactly, not just in expectation.
func parseMix(s string) ([]string, error) {
	var wls []string
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want workload=weight)", kv)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -mix weight in %q (want a positive integer)", kv)
		}
		for i := 0; i < w; i++ {
			wls = append(wls, name)
		}
	}
	if len(wls) == 0 {
		return nil, fmt.Errorf("-mix names no workloads")
	}
	return wls, nil
}

// closedLoop runs o.c workers, each firing back-to-back until deadline.
func closedLoop(o options, deadline time.Time, fire func(int64)) {
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < o.c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				fire(i)
			}
		}()
	}
	wg.Wait()
}

// openLoop fires requests on a fixed arrival schedule until deadline,
// with outstanding requests bounded so an unresponsive server cannot
// balloon goroutines.
func openLoop(o options, deadline time.Time, fire func(int64)) {
	interval := time.Duration(float64(time.Second) / o.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	sem := make(chan struct{}, 4096)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	var i int64
	for now := range ticker.C {
		if !now.Before(deadline) {
			break
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int64) {
				defer func() { <-sem; wg.Done() }()
				fire(i)
			}(i)
		default:
			// Too many outstanding: drop this arrival client-side rather
			// than queue it (open-loop fidelity over completeness).
		}
		i++
	}
	wg.Wait()
}

// replicaSet is capload's health-aware view of a replicated router
// fleet. Requests start at the preferred replica (the last one that
// answered); a transport-level failure marks the replica down for a
// cooldown and the walk moves on, so a kill -9'd router costs each
// in-flight request at most one bounded extra attempt, and nearly
// nothing once the preference has moved. Replicas in cooldown are
// demoted to the end of the walk, not excluded: being wrong about
// "down" costs one attempt, skipping a live replica could fail the
// request.
type replicaSet struct {
	urls      []string
	preferred atomic.Int64
	downUntil []atomic.Int64 // unix nanos; demoted (not excluded) until then
	failovers atomic.Uint64  // requests that succeeded on a non-first attempt
}

// replicaCooldown is how long a transport failure demotes a replica.
// Deliberately short: a router that TERMs gracefully flips /healthz
// long before it stops answering, and one that dies abruptly keeps
// refusing instantly — re-probing is cheap either way.
const replicaCooldown = time.Second

func newReplicaSet(urls []string) *replicaSet {
	return &replicaSet{urls: urls, downUntil: make([]atomic.Int64, len(urls))}
}

// order returns the target indexes to try for one request: the
// preferred replica first, the rest round-robin after it, cooling
// replicas demoted to the tail.
func (rs *replicaSet) order() []int {
	n := len(rs.urls)
	if n == 1 {
		return []int{0}
	}
	p := int(rs.preferred.Load()) % n
	now := time.Now().UnixNano()
	live := make([]int, 0, n)
	var cooling []int
	for i := 0; i < n; i++ {
		t := (p + i) % n
		if rs.downUntil[t].Load() > now {
			cooling = append(cooling, t)
		} else {
			live = append(live, t)
		}
	}
	return append(live, cooling...)
}

func (rs *replicaSet) markUp(t int) {
	rs.downUntil[t].Store(0)
	rs.preferred.Store(int64(t))
}

func (rs *replicaSet) markDown(t int) {
	rs.downUntil[t].Store(time.Now().UnixNano() + replicaCooldown.Nanoseconds())
}

// scrapeAny pulls /metrics from the first reachable target, reporting
// which one answered — with a replica fleet each replica sees its own
// request stream, so before/after counter deltas are only meaningful
// against the same replica (the caller re-prefers the before-scrape's
// URL for the after scrape).
func scrapeAny(client *http.Client, targets []string) (map[string]float64, string, error) {
	var lastErr error
	for _, t := range targets {
		m, err := scrapeMetrics(client, t)
		if err == nil {
			return m, t, nil
		}
		lastErr = err
	}
	return nil, "", lastErr
}

// scrapeMetrics pulls the target's full /metrics exposition into a
// series → value map (labelled series keep their label string in the
// key), so capserve division counters and caprouter cluster counters
// come from the same two scrapes.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return promtext.Parse(body), nil
}

// delta returns after[key]-before[key] when the pair is usable (present
// after, and not gone backwards — which would mean a restart).
func delta(before, after map[string]float64, key string) (float64, bool) {
	a, ok := after[key]
	if !ok {
		return 0, false
	}
	d := a - before[key]
	if d < 0 {
		return 0, false
	}
	return d, true
}

// pct returns the q-quantile of sorted latencies (q=1 → max).
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// codeKeys renders the status-code histogram with stable keys ("0" means
// transport error).
func codeKeys(byCode map[int]int) map[string]int {
	out := map[string]int{}
	for c, n := range byCode {
		out[strconv.Itoa(c)] = n
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "capload: "+format+"\n", args...)
	os.Exit(1)
}
