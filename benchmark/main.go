// Command benchmark is the repo's one measuring instrument: six named
// workloads across the four tiers (simulator → native runtime → capserve
// → capcluster), every output verified, end-to-end numbers from an
// untraced window and a per-layer price list from a traced one.
//
//	go run ./benchmark --workload serve_open --seed 1 --seconds 15 --trace 0
//	go run ./benchmark --workload serve_open --seed 1 --seconds 15 --trace 1
//	go run ./benchmark -report out.json [-seed 1]
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -manifest > BENCHMARK.json
//
// A single run prints every metric by name with its unit and, as the
// last line of standard output, one JSON object {correct, attempted,
// failed, metrics}. Rates, limits and sizes are frozen in manifest.go;
// README.md says why each workload exists and what each layer metric is
// predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// outDir receives the lock file and the traced windows' span files.
const outDir = ".bench_out"

func main() {
	workload := flag.String("workload", "", "run one workload by name")
	seed := flag.Int64("seed", 1, "seed the request list and arrival schedule are generated from")
	seconds := flag.Int("seconds", runSeconds, "the measured window; fixed, so only the default is accepted")
	trace := flag.Int("trace", 0, "0: untraced window, end-to-end metrics; 1: traced window, per-layer metrics")
	report := flag.String("report", "", "run every workload and write one JSON report to this file")
	compare := flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Parse()

	var err error
	switch {
	case *seconds != runSeconds || (*trace != 0 && *trace != 1):
		// The window is part of the contract the spread tables were
		// measured under; the flag exists because the driver passes it.
		err = fmt.Errorf("need -seconds %d and -trace 0 or 1", runSeconds)
	case *manifest:
		_, err = os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
			break
		}
		err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *report != "":
		err = writeReport(*report, *seed)
	case *workload != "":
		err = runOne(*workload, *seed, *trace == 1)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runner carries one run of one workload: its inputs and what it measured.
type runner struct {
	def    *workloadDef
	seed   int64
	traced bool
	// P is GOMAXPROCS, the client goroutine and connection cap, and the
	// context count of every capsule.Runtime the benchmark builds.
	P int

	setups            []float64 // seconds, one per set-up repetition
	e2e               map[string]float64
	layer             map[string]float64
	attempted, failed int
	// Measured like the end-to-end metrics and printed on the note line,
	// with the peak RSS; gated by nothing (README, "Spread").
	p95MS, cpuMSPerOp float64
}

func procs() int { return min(runtime.NumCPU(), 4) }

func runOne(name string, seed int64, traced bool) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	unlock, err := lockOut()
	if err != nil {
		return err
	}
	defer unlock()

	r := &runner{def: def, seed: seed, traced: traced, P: procs(), e2e: map[string]float64{}, layer: map[string]float64{}}
	runtime.GOMAXPROCS(r.P)

	spinBefore := spinNS()
	if err := def.run(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	spinAfter := spinNS()
	r.layer["env.spin_ns_before"], r.layer["env.spin_ns_after"] = spinBefore, spinAfter
	r.e2e["setup_s"] = median(r.setups)

	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
		fmt.Printf("metric %-40s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	fmt.Printf("note workload=%s seed=%d traced=%t procs=%d noisy=%t p95_ms=%.6g cpu_ms_per_op=%.6g peak_rss_mb=%.4g\n",
		name, seed, traced, r.P, noisy(spinBefore, spinAfter), r.p95MS, r.cpuMSPerOp, readRusage().peakMB)
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// lockOut refuses to start while another benchmark run holds the
// checkout: two runs sharing two cores measure each other.
func lockOut() (unlock func(), err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("another benchmark run is still going in this checkout (%s/lock is held)", outDir)
	}
	return func() { f.Close() }, nil
}

// buildFunc stands a tier up for the plan a set-up produced. rec == nil
// builds it bare, the way a user runs it; rec != nil installs the
// benchmark's span wrappers around each layer's public entry points.
type buildFunc func(rec *recorder) (target, error)

// timedSpec is what the workloads differ in.
type timedSpec struct {
	// setUp does one complete set-up: inputs from the seed, expected
	// outputs, whatever the tier needs built.
	setUp   func() (*plan, buildFunc, error)
	clients int
	root    spanKind
	// churn kills and restarts a backend during the measured window.
	churn bool
	// extra adds the workload's own per-layer rows after a traced window.
	extra func(r *runner, w *window) error
}

// mixSetUp is the set-up of the workloads that send (workload, n, seed)
// triples: generate the plan, compute every pool entry's expected
// checksum, stand the tier up.
func (r *runner) mixSetUp(mix mixSpec, rate float64, build func(pl *plan, want []uint64, rec *recorder) (target, error)) func() (*plan, buildFunc, error) {
	count := 1 << 16
	if rate > 0 {
		// Enough arrivals for every warm-up and window of this run.
		count = int(rate * 1.25 * (measured + warmUp + tracedWarmUp + 5*time.Second).Seconds())
	}
	return func() (*plan, buildFunc, error) {
		pl := newPlan(r.seed, mix, count, rate)
		want, err := expected(pl.Pool, r.P)
		if err != nil {
			return nil, nil, err
		}
		return pl, func(rec *recorder) (target, error) { return build(pl, want, rec) }, nil
	}
}

// runTimed is the shape the timed workloads share: set up several times
// (setup_s is the median; tear-down is not timed), warm up, then measure.
// An untraced run measures the bare tier for the whole window. A traced
// run measures the bare tier for half of it — the base of
// trace.overhead_ratio, summarised exactly like the traced half — then
// rebuilds the tier with the wrappers installed and measures that for the
// other half.
func (r *runner) runTimed(sp timedSpec) error {
	var pl *plan
	var build buildFunc
	var tg target
	for rep := 0; rep < setupReps; rep++ {
		if tg != nil {
			tg.close()
		}
		start := time.Now()
		var err error
		if pl, build, err = sp.setUp(); err != nil {
			return err
		}
		if tg, err = build(nil); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	l := &load{plan: pl, tg: tg, clients: sp.clients, root: sp.root}
	if _, err := l.run(warmUp, nil); err != nil {
		tg.close()
		return err
	}

	if !r.traced {
		w, _, err := measure(l, measured, sp.churn, nil)
		tg.close()
		if err != nil {
			return err
		}
		_, err = r.endToEndRows(w)
		return err
	}

	bare, _, err := measure(l, measured/2, false, nil)
	tg.close()
	if err != nil {
		return err
	}
	// Peak memory of the bare tier under load, read before the span
	// recorder (tens of MB of the benchmark's own) is allocated.
	r.layer["env.peak_rss_mb"] = readRusage().peakMB
	rec := newRecorder()
	if tg, err = build(rec); err != nil {
		return err
	}
	lt := &load{plan: pl, tg: tg, clients: sp.clients, root: sp.root}
	lt.next.Store(l.next.Load())
	if _, err := lt.run(tracedWarmUp, nil); err != nil {
		tg.close()
		return err
	}
	rec.n.Store(0) // drop the warm-up's server-side spans
	before := tg.counters()
	w, ch, err := measure(lt, measured-measured/2, sp.churn, rec)
	after := tg.counters()
	tg.close() // also waits for every handler, so every span is in
	if err != nil {
		return err
	}
	if err := r.tracedRows(bare, w, rec); err != nil {
		return err
	}
	r.counterRows(before, after)
	if ch != nil {
		r.churnRows(w, ch)
	}
	if sp.extra != nil {
		return sp.extra(r, w)
	}
	return nil
}

// measure runs one measured window of dur, with the churn alongside it
// when asked. A failed op is a counted miss, not an error.
func measure(l *load, dur time.Duration, churned bool, rec *recorder) (*window, *churn, error) {
	var ch *churn
	if churned {
		ch = newChurn(l.tg.(*fleet))
		ch.start(dur)
	}
	w, err := l.run(dur, rec)
	if ch != nil {
		if cerr := ch.wait(); err == nil {
			err = cerr
		}
	}
	return w, ch, err
}

// endToEndRows reduces the window whose numbers the run reports.
func (r *runner) endToEndRows(w *window) (summary, error) {
	s, err := summarize(w, r.def.Limit)
	if err != nil {
		return s, err
	}
	r.attempted, r.failed = s.attempted, s.failed
	r.e2e["ops_per_s"] = s.opsPerS
	r.e2e["p50_ms"] = ms(s.p50)
	r.e2e["within_limit_ratio"] = s.within
	r.p95MS, r.cpuMSPerOp = ms(s.p95), s.cpuMSPerOp
	return s, nil
}

// tracedRows are the rows every traced run has: the traced window's own
// end-to-end numbers, what tracing cost against the bare window, the
// loadgen's validity numbers and what the spans say.
func (r *runner) tracedRows(bare, w *window, rec *recorder) error {
	base, err := summarize(bare, r.def.Limit)
	if err != nil {
		return fmt.Errorf("bare window: %w", err)
	}
	s, err := r.endToEndRows(w)
	if err != nil {
		return err
	}
	r.layer["trace.overhead_ratio"] = float64(s.p50) / float64(base.p50)
	r.loadgenRows(w, s)
	return r.spanRows(rec)
}

// loadgenRows are the benchmark's own validity numbers.
func (r *runner) loadgenRows(w *window, s summary) {
	r.layer["loadgen.sent"] = float64(s.attempted)
	r.layer["loadgen.ok"] = float64(s.ok)
	r.layer["loadgen.failed"] = float64(s.failed)
	r.layer["loadgen.wrong_checksum"] = float64(s.wrong)
	r.layer["loadgen.p95_ms"] = ms(s.p95)
	r.layer["loadgen.cpu_ms_per_op"] = s.cpuMSPerOp
	okLat := sortedLat(w)
	r.layer["loadgen.samples"] = float64(len(okLat))
	if p99, err := percentile(okLat, 99); err == nil {
		r.layer["loadgen.p99_ms"] = ms(time.Duration(p99))
	}
	r.layer["loadgen.max_ms"] = ms(time.Duration(okLat[len(okLat)-1]))
	var late, elapsed []int64
	var lat int64
	degraded := 0
	for _, x := range w.samples {
		late = append(late, int64(x.late))
		if x.ok {
			elapsed = append(elapsed, int64(x.elapsed))
			lat += int64(x.lat)
		}
		if x.degraded {
			degraded++
		}
	}
	r.layer["loadgen.late_p95_ms"] = percentileOrZero(late, 95) / 1e6
	r.layer["workloads.elapsed_share"] = float64(sum(elapsed)) / float64(lat)
	r.layer["capserve.degraded_ratio"] = float64(degraded) / float64(s.attempted)

	// backend_spread: busiest backend's share ÷ quietest's.
	share := map[string]int{}
	for _, x := range w.samples {
		if x.backend != "" {
			share[x.backend]++
		}
	}
	if len(share) > 1 {
		lo, hi := len(w.samples), 0
		for _, n := range share {
			lo, hi = min(lo, n), max(hi, n)
		}
		r.layer["capcluster.backend_spread"] = float64(hi) / float64(lo)
	}
}

// counterRows turns the tiers' monotonic counters into per-window rows.
// Names with a leading underscore are raw material for a ratio.
func (r *runner) counterRows(before, after map[string]float64) {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
		if k[0] != '_' {
			r.layer[k] = d[k]
		}
	}
	ratio := func(name, num, den string) {
		if d[den] > 0 {
			r.layer[name] = d[num] / d[den]
		}
	}
	ratio("capsule.grant_ratio", "capsule.granted", "capsule.probes")
	ratio("capserve.queue_occupancy_mean", "_capserve.occupancy_sum", "_capserve.occupancy_samples")
	ratio("capcluster.remote_grant_ratio", "_capcluster.remote_grants", "_capcluster.remote_probes")
	ratio("capcluster.fallback_ratio", "_capcluster.local_fallbacks", "_capcluster.requests")
	r.layer["capsule.probes_per_op"] = d["capsule.probes"] / r.layer["loadgen.ok"]
}

// spanRows resolves the traced window's spans, writes them out, and
// reads the per-layer latencies and the closure check off them.
func (r *runner) spanRows(rec *recorder) error {
	spans := rec.recorded()
	resolve(spans)
	if err := writeSpans(filepath.Join(outDir, r.def.Name+".spans.json"), spans); err != nil {
		return err
	}
	dur, self := durations(spans), selfTimes(spans)
	r.layer["trace.spans"] = float64(len(spans))
	r.layer["trace.closure_ratio"] = closure(spans, self)

	p := func(name string, vals []int64, k spanKind, pct float64) {
		r.layer[name] = us(percentileOrZero(byKind(spans, vals, k), pct))
	}
	p("capserve.handler_p50_us", dur, kCapserve, 50)
	p("capserve.handler_p95_us", dur, kCapserve, 95)
	p("capserve.self_p50_us", self, kCapserve, 50)
	p("capcluster.router_self_p50_us", self, kRouter, 50)
	p("capcluster.dispatch_p50_us", dur, kDispatch, 50)
	p("wire.client_hop_p50_us", self, kClient, 50)
	p("wire.dispatch_hop_p50_us", self, kDispatch, 50)
	r.layer["capserve.requests"] = float64(len(byKind(spans, dur, kCapserve)))
	if routed := len(byKind(spans, dur, kRouter)); routed > 0 {
		r.layer["capcluster.attempts_per_request"] = float64(len(byKind(spans, dur, kDispatch))) / float64(routed)
	}
	if ops := len(byKind(spans, dur, kOp)); ops > 0 {
		r.layer["capsule.join_wait_ms_per_op"] = float64(sum(byKind(spans, dur, kJoinWait))) / 1e6 / float64(ops)
		r.layer["capsule.lock_wait_us_per_op"] = float64(sum(byKind(spans, dur, kLockWait))) / 1e3 / float64(ops)
	}
	return nil
}
