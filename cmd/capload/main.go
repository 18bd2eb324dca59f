// Command capload drives a running capserve, lone or routing, with sustained
// load and reports what the client saw: status codes, client-observed
// latency percentiles, throughput, the failed-request rate and, across
// replicated -targets, the failovers it took. What the fleet itself
// counted — grant rate, server-side quantiles, SLO burn, fallback tiers,
// per-backend dispatches — is the fleet's own to report, on /metrics and
// /debug/watch (capscope top); capload does not re-derive it.
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
// -max-error-rate gates on the client's own view — the fraction of
// requests that failed outright (transport error, 5xx, 499; a 4xx is
// the client's conversation with the API, not a failure) — which is
// what the chaos jobs assert is zero: server metrics can claim every
// death was absorbed, but only the client knows.
//
// Exit status: 0 on success, 1 on bad input or when no request
// succeeded, 2 when a gate fails, 3 on a checksum mismatch.
//
// Usage:
//
//	capload -url http://localhost:8080 -d 10s -c 16
//	capload -url http://localhost:8080 -d 10s -rate 500 -workloads quicksort,lzw
//	capload -url http://localhost:8090 -d 10s -mix quicksort=4,dijkstra=2,lzw=1
//	capload -d 5s -c 8 -min-throughput 200   # CI smoke: exit 2 below 200 req/s
//	capload -url http://localhost:8090 -d 10s -max-error-rate 0   # chaos: zero failed requests
//	capload -targets http://localhost:8090,http://localhost:8091 -d 10s -max-error-rate 0  # replicated routers with failover
//
// With -trace N, every Nth request carries a fresh X-Capsule-Trace-ID,
// and after the run capload pulls the target's /debug/trace snapshot and
// prints the p99-latency exemplar's event waterfall — the slowest-1%
// request's actual journey through admission, division and (via a
// router) dispatch. Only the client knows which traced request was its
// p99, so the pick stays here. An empty waterfall exits 2: the header
// made the round trip but no events landed, so tracing is broken end to
// end.
//
//	capload -url http://localhost:8080 -d 5s -trace 16
package main

import (
	"encoding/json"
	"errors"
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
)

// runResponse is the slice of capserve's response body capload reads.
type runResponse struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	Checksum uint64 `json:"checksum"`
}

// requestTimeout bounds one HTTP attempt: a target that has not answered
// within it fails the attempt as a transport error, and the walk moves
// to the next replica.
const requestTimeout = 10 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options are the command's flags.
type options struct {
	url, targets, workloads, mix string
	n, c, trace                  int
	seed, seeds                  int64
	rate, minTput, maxErrRate    float64
	d                            time.Duration
	json                         bool
}

// newFlagSet defines every flag of the command, once: run parses its
// arguments with it, and TestDocCommands each documented command line.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("capload", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.url, "url", "http://localhost:8080", "capserve base URL, lone or routing")
	fs.StringVar(&o.targets, "targets", "", "comma-separated replicated router base URLs (capserve -backends) with health-aware failover (overrides -url)")
	fs.StringVar(&o.workloads, "workloads", "quicksort,dijkstra,lzw,perceptron", "comma-separated workloads, round-robin")
	fs.StringVar(&o.mix, "mix", "", "weighted workload mix, e.g. quicksort=4,dijkstra=2,lzw=1 (overrides -workloads)")
	fs.IntVar(&o.n, "n", 2000, "input size per request")
	fs.Int64Var(&o.seed, "seed", 1, "base input seed")
	fs.Int64Var(&o.seeds, "seeds", 64, "seed cycle length (request i uses seed + i mod seeds)")
	fs.IntVar(&o.c, "c", 8, "closed-loop concurrency (workers)")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	fs.DurationVar(&o.d, "d", 5*time.Second, "load duration")
	fs.Float64Var(&o.minTput, "min-throughput", 0, "exit 2 if 2xx throughput falls below this (req/s)")
	fs.Float64Var(&o.maxErrRate, "max-error-rate", -1, "exit 2 if the fraction of failed requests (transport errors, 5xx, 499 — anything but 2xx/4xx) exceeds this; 0 = zero tolerance (negative = no gate)")
	fs.BoolVar(&o.json, "json", false, "emit a machine-readable JSON report")
	fs.IntVar(&o.trace, "trace", 0, "stamp a trace ID on every Nth request and print the p99 exemplar's waterfall from /debug/trace (0 = off)")
	return fs, o
}

// run is the whole command: it parses args, drives the load, writes the
// report to stdout and returns the exit status (see the package comment).
func run(args []string, stdout io.Writer) int {
	fs, o := newFlagSet()
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var wls []string
	if o.mix != "" {
		var err error
		if wls, err = parseMix(o.mix); err != nil {
			return fail(1, "%v", err)
		}
	} else {
		for _, wl := range strings.Split(o.workloads, ",") {
			wls = append(wls, strings.TrimSpace(wl))
		}
	}
	if o.n <= 0 || o.c <= 0 || o.d <= 0 || o.seeds <= 0 || o.rate < 0 {
		return fail(1, "invalid flags: n, c, d and seeds must be positive, rate non-negative")
	}

	// -targets generalizes -url to a replicated router fleet: requests go
	// to the preferred replica, and a replica that fails at the transport
	// (refused, reset, timed out) costs the request one bounded attempt
	// before the next one — the client-side edge of the zero-failed-
	// request failover contract.
	var targets []string
	for _, t := range strings.Split(o.targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		targets = []string{o.url}
	}
	url := targets[0]
	replicas := newReplicaSet(targets)

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
	client := httptune.Client(idle, requestTimeout)

	// tracedReq is one request capload chose to trace: its stamped ID
	// and client-observed outcome, the pool the p99 exemplar is drawn
	// from after the run.
	type tracedReq struct {
		id      uint64
		code    int
		latency time.Duration
	}
	var (
		mu       sync.Mutex
		byCode   = map[int]int{} // status → requests; 0 = transport error
		lats     []time.Duration // 2xx latencies
		traced   []tracedReq
		checks   = map[string]uint64{}
		mismatch int
	)
	record := func(code int, lat time.Duration) {
		mu.Lock()
		byCode[code]++
		if code >= 200 && code < 300 {
			lats = append(lats, lat)
		}
		mu.Unlock()
	}
	fire := func(i int64) {
		wl := wls[int(i)%len(wls)]
		reqSeed := o.seed + i%o.seeds
		var tid uint64
		if o.trace > 0 && i%int64(o.trace) == 0 {
			tid = captrace.NewID()
		}
		// Walk the replica set, preferred first: a replica that fails at
		// the transport costs one attempt and the next one absorbs the
		// request. The recorded latency spans the whole walk — failover
		// is supposed to be invisible in the error column, not in p99.
		var resp *http.Response
		start := time.Now()
		for attempt, ti := range replicas.order() {
			req, rerr := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/run/%s?n=%d&seed=%d", replicas.urls[ti], wl, o.n, reqSeed), nil)
			if rerr != nil {
				record(0, 0)
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
			record(0, lat)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		record(resp.StatusCode, lat)
		if tid != 0 {
			mu.Lock()
			traced = append(traced, tracedReq{tid, resp.StatusCode, lat})
			mu.Unlock()
		}
		// Same (workload, n, seed) must always return the same checksum.
		if resp.StatusCode == http.StatusOK {
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
		openLoop(o.rate, deadline, fire)
	} else {
		closedLoop(o.c, deadline, fire)
	}
	elapsed := time.Since(start)
	// Throughput is judged over the load window, not the post-deadline
	// drain: a single straggler riding out its timeout must not deflate
	// the sustained rate (and spuriously trip -min-throughput).
	window := elapsed
	if window > o.d {
		window = o.d
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ok2xx := len(lats)
	tput := float64(ok2xx) / window.Seconds()
	// Failed requests from the *client's* view: transport errors (code
	// 0), 5xx, 499 — anything that is neither a success nor the client's
	// own 4xx conversation with the API. This is what the chaos gates
	// assert is zero: server metrics can claim every death was absorbed,
	// but only the client knows.
	var total, failed int
	for status, count := range byCode {
		total += count
		if !(status >= 200 && status < 300) && !(status >= 400 && status < 500 && status != 499) {
			failed += count
		}
	}
	errs := total - ok2xx
	var failedRate float64
	if total > 0 {
		failedRate = float64(failed) / float64(total)
	}

	report := map[string]any{
		"mode": mode, "url": url, "workloads": wls, "n": o.n,
		"duration_s": elapsed.Seconds(), "total": total,
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
	if len(targets) > 1 {
		report["targets"] = targets
		report["failovers"] = replicas.failovers.Load()
	}

	// Trace exemplar: pick the p99-latency traced request and pull its
	// event waterfall from the target's /debug/trace — the slowest-1%
	// request's actual lifecycle, not an average.
	var waterfall []captrace.Event
	var exemplar tracedReq
	if o.trace > 0 {
		var ok2 []tracedReq
		for _, tr := range traced {
			if tr.code >= 200 && tr.code < 300 {
				ok2 = append(ok2, tr)
			}
		}
		if len(ok2) == 0 {
			return fail(1, "-trace %d set but no traced request succeeded", o.trace)
		}
		byLat := append([]tracedReq(nil), ok2...)
		sort.Slice(byLat, func(i, j int) bool { return byLat[i].latency < byLat[j].latency })
		exemplar = byLat[int(0.99*float64(len(byLat)-1))]
		// One URL yields every tier: a router's /debug/trace carries its
		// spawned backends' snapshots after its own.
		snaps, terr := capdebug.Get[[]captrace.Snapshot](client, url+"/debug/trace")
		if terr != nil {
			return fail(1, "-trace: fetching /debug/trace: %v (tracing not armed on the target?)", terr)
		}
		byTrace := captrace.ByTrace(snaps...)
		waterfall = byTrace[exemplar.id]
		// The p99 exemplar may predate the rings' retention: one traced
		// request records an event per division point, so a few thousand
		// offered divisions wrap a default-sized ring in milliseconds.
		// Walk back from the most recently traced success — the freshest
		// possible — looking for the most complete waterfall still
		// resident: all three tiers if any request's span survived whole,
		// else serving-tier, else any events at all. If every ID comes
		// back empty, tracing is broken end to end — the gate below exits 2.
		best := tierSpan(waterfall)
		for i := len(ok2) - 1; i >= 0 && best < tierFull; i-- {
			if evs := byTrace[ok2[i].id]; tierSpan(evs) > best {
				exemplar, waterfall, best = ok2[i], evs, tierSpan(evs)
			}
		}
		report["trace_id"] = captrace.FormatID(exemplar.id)
		report["trace_event_count"] = len(waterfall)
		report["trace_waterfall"] = waterfall
	}

	if o.json {
		json.NewEncoder(stdout).Encode(report)
	} else {
		fmt.Fprintf(stdout, "capload: %s loop, %s against %s (workloads %s, n=%d)\n",
			mode, elapsed.Round(time.Millisecond), url, strings.Join(wls, ","), o.n)
		fmt.Fprintf(stdout, "requests: total=%d 2xx=%d errors=%d by-code=%v\n", total, ok2xx, errs, codeKeys(byCode))
		if len(targets) > 1 {
			fmt.Fprintf(stdout, "targets: %d replicas, failovers=%d\n", len(targets), replicas.failovers.Load())
		}
		fmt.Fprintf(stdout, "throughput: %.1f req/s (2xx)\n", tput)
		fmt.Fprintf(stdout, "latency: p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			ms(pct(lats, 0.50)), ms(pct(lats, 0.95)), ms(pct(lats, 0.99)), ms(pct(lats, 1)))
		if o.trace > 0 {
			fmt.Fprintf(stdout, "trace exemplar %s (client latency %.2fms):\n", captrace.FormatID(exemplar.id), ms(exemplar.latency))
			if len(waterfall) == 0 {
				fmt.Fprintln(stdout, "  (no events — tracing broken end to end)")
			}
			captrace.WriteWaterfall(stdout, waterfall)
		}
		if mismatch > 0 {
			fmt.Fprintf(stdout, "VERIFY FAILED: %d checksum mismatches\n", mismatch)
		}
	}

	switch {
	case mismatch > 0:
		return 3
	case ok2xx == 0:
		return fail(1, "no successful responses")
	case o.minTput > 0 && tput < o.minTput:
		return fail(2, "throughput %.1f req/s below required %.1f", tput, o.minTput)
	case o.maxErrRate >= 0 && failedRate > o.maxErrRate:
		return fail(2, "failed-request rate %.4f (%d/%d) above allowed %.4f", failedRate, failed, total, o.maxErrRate)
	case o.trace > 0 && len(waterfall) == 0:
		// The IDs round-tripped (the requests succeeded) but no events
		// landed under them: the trace pipeline is broken somewhere
		// between header adoption and the rings.
		return fail(2, "empty waterfall for every traced request")
	}
	return 0
}

// tierSpan scores how much of the degradation ladder a waterfall still
// covers: 0 = nothing resident, 1 = some events, 2 = reached the
// serving tier (an admission/shed/done event), 3 = tierFull — serving
// tier plus runtime events (a granted request's probe/handoff/
// death, or a refused division's deny). Route spans alone score
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
		case captrace.KProbeGranted, captrace.KProbeDenied, captrace.KHandoff, captrace.KDeath:
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

// maxMixWeight bounds one -mix weight: the slot list holds a workload
// once per unit of weight, so an unbounded weight is an unbounded
// allocation. A thousand slots resolve any ratio worth asking for.
const maxMixWeight = 1000

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
		if err != nil || w <= 0 || w > maxMixWeight {
			return nil, fmt.Errorf("bad -mix weight in %q (want an integer in 1..%d)", kv, maxMixWeight)
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

// closedLoop runs c workers, each firing back-to-back until deadline.
func closedLoop(c int, deadline time.Time, fire func(int64)) {
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
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
func openLoop(rate float64, deadline time.Time, fire func(int64)) {
	interval := time.Duration(float64(time.Second) / rate)
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

// fail reports a problem on stderr and returns the exit status to use.
func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "capload: "+format+"\n", args...)
	return code
}
