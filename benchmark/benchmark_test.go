package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

// bytes serialises the plan; two plans are the same inputs iff their
// bytes are equal.
func (p *plan) bytes() []byte {
	var b bytes.Buffer
	for _, r := range p.Pool {
		b.WriteString(r.Workload)
		binary.Write(&b, binary.LittleEndian, int64(r.N))
		binary.Write(&b, binary.LittleEndian, r.Seed)
	}
	binary.Write(&b, binary.LittleEndian, p.List)
	for _, d := range p.Due {
		binary.Write(&b, binary.LittleEndian, int64(d))
	}
	return b.Bytes()
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, mix := range []mixSpec{fineMix, clusterMix, coarseMix} {
		a := newPlan(7, mix, 4096, 400).bytes()
		b := newPlan(7, mix, 4096, 400).bytes()
		c := newPlan(8, mix, 4096, 400).bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%v: same seed gave different request lists or schedules", mix.Workloads)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%v: different seeds gave the same request list and schedule", mix.Workloads)
		}
	}
}

func TestPlanMixAndSchedule(t *testing.T) {
	p := newPlan(1, fineMix, 1<<16, 400)
	byWorkload := map[string]int{}
	small := 0
	for _, i := range p.List {
		rq := p.Pool[i]
		byWorkload[rq.Workload]++
		if rq.N == fineSize(rq.Workload, fineSizes[0]) {
			small++
		}
	}
	// 4:2:1:1, and zipf(1.1) by rank over the rungs.
	if got := float64(byWorkload["quicksort"]) / float64(len(p.List)); math.Abs(got-0.5) > 0.02 {
		t.Errorf("quicksort share = %.3f, want 0.5", got)
	}
	harmonic := 0.0
	for k := range fineSizes {
		harmonic += 1 / math.Pow(float64(k+1), zipfS)
	}
	if got := float64(small) / float64(len(p.List)); math.Abs(got-1/harmonic) > 0.02 {
		t.Errorf("smallest-rung share = %.3f, want %.3f", got, 1/harmonic)
	}
	if len(fineSizes) != 25 || fineSizes[0] != 64 || fineSizes[24] != 4096 || fineSizes[4] != 128 {
		t.Errorf("fine ladder = %v, want 25 quarter-octave rungs from 64 to 4096", fineSizes)
	}
	for i := 1; i < len(p.Due); i++ {
		if p.Due[i] < p.Due[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if rate := float64(len(p.Due)) / p.Due[len(p.Due)-1].Seconds(); math.Abs(rate-400) > 8 {
		t.Errorf("arrival rate = %.1f/s, want 400", rate)
	}

	rr := newPlan(1, coarseMix, 12, 0)
	for i, idx := range rr.List {
		if want := coarseMix.Workloads[i%3]; rr.Pool[idx].Workload != want {
			t.Errorf("round robin entry %d is %s, want %s", i, rr.Pool[idx].Workload, want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]int64, 200)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if v, err := percentile(xs, 95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %d, %v; want 190", v, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was not refused")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %d, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples was not refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing was not refused")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

// stallTarget takes `each` per request, except that request `slow` takes
// `stall`.
type stallTarget struct {
	slow        uint32
	stall, each time.Duration
}

func (s stallTarget) exec(rid uint32, _ int32) opResult {
	if rid == s.slow {
		time.Sleep(s.stall)
	} else if s.each > 0 {
		time.Sleep(s.each)
	}
	return opResult{}
}
func (stallTarget) counters() map[string]float64 { return nil }
func (stallTarget) close()                       {}

func TestOpenLoopTimesFromTheScheduledSend(t *testing.T) {
	const gap, stall = 10 * time.Millisecond, 200 * time.Millisecond
	pl := &plan{List: make([]int32, 60), Due: make([]time.Duration, 60)}
	for i := range pl.Due {
		pl.Due[i] = time.Duration(i) * gap
	}
	// One connection; the 4th request stalls the server for 200 ms.
	l := &load{plan: pl, tg: stallTarget{slow: 4, stall: stall}, clients: 1, root: kClient}
	w, err := l.run(400*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.samples) != 40 {
		t.Fatalf("sent %d requests in a 400 ms window at one per 10 ms, want 40", len(w.samples))
	}
	for i, x := range w.samples {
		due := time.Duration(i) * gap
		if x.start != due {
			t.Fatalf("sample %d is timed from %v, want its scheduled send %v", i, x.start, due)
		}
		// Requests scheduled during the stall waited for it: the one due
		// right after the slow one inherits nearly the whole stall, and
		// the debt shrinks by one gap per request.
		if stalled := 3*gap + stall - due; i > 3 && stalled > 20*time.Millisecond {
			if x.lat < stalled-5*time.Millisecond {
				t.Errorf("request %d (due %v) latency %v, want >= %v: the stall was omitted", i, due, x.lat, stalled)
			}
			if x.late < stalled-5*time.Millisecond {
				t.Errorf("request %d was sent %v late, want >= %v", i, x.late, stalled)
			}
		}
	}
	if first := w.samples[0]; first.lat > 50*time.Millisecond {
		t.Errorf("request before the stall took %v", first.lat)
	}
}

func TestClosedLoopStopsAtTheWindowAndCyclesThePlan(t *testing.T) {
	pl := &plan{List: []int32{0, 1, 2}}
	l := &load{plan: pl, tg: stallTarget{each: 200 * time.Microsecond}, clients: 2, root: kOp}
	w, err := l.run(30*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.samples) <= len(pl.List) {
		t.Errorf("closed loop sent %d ops, want it to cycle past the %d-entry list", len(w.samples), len(pl.List))
	}
	for _, x := range w.samples {
		if x.start >= 30*time.Millisecond {
			t.Errorf("op sent at %v, after the window closed", x.start)
		}
	}
}

func TestFailedShedAndWrongAreMisses(t *testing.T) {
	w := &window{dur: time.Second, cpu: time.Second}
	for i := 0; i < 400; i++ {
		w.samples = append(w.samples, sample{lat: time.Millisecond, ok: true})
	}
	for i := 0; i < 40; i++ { // correct but over the limit
		w.samples = append(w.samples, sample{lat: 50 * time.Millisecond, ok: true})
	}
	for i := 0; i < 30; i++ { // failed or shed: no latency at all
		w.samples = append(w.samples, sample{lat: time.Microsecond})
	}
	for i := 0; i < 30; i++ { // answered fast with the wrong checksum
		w.samples = append(w.samples, sample{lat: time.Microsecond, wrong: true})
	}
	s, err := summarize(w, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.attempted != 500 || s.ok != 440 || s.failed != 60 || s.wrong != 30 {
		t.Errorf("attempted/ok/failed/wrong = %d/%d/%d/%d, want 500/440/60/30", s.attempted, s.ok, s.failed, s.wrong)
	}
	if s.within != 0.8 {
		t.Errorf("within_limit_ratio = %v, want 400/500: failed, wrong and slow ops all miss", s.within)
	}
	if s.opsPerS != 440 {
		t.Errorf("ops_per_s = %v, want only the 440 correct ops", s.opsPerS)
	}
	if s.p50 != time.Millisecond {
		t.Errorf("p50 = %v: a failed op's microsecond must not count as a latency", s.p50)
	}
	if want := 1000.0 / 440; math.Abs(s.cpuMSPerOp-want) > 1e-9 {
		t.Errorf("cpu_ms_per_op = %v, want one CPU second over 440 correct ops", s.cpuMSPerOp)
	}

	if _, err := summarize(&window{dur: w.dur, samples: w.samples[440:]}, time.Second); err == nil {
		t.Error("a window with no correct op was summarised")
	}
}

func TestFewSamplesStillHaveAMedianButNoP95(t *testing.T) {
	// sim_paper's six passes: the median is the third, a p95 reads 0.
	w := &window{dur: 21 * time.Second}
	for _, sec := range []int{5, 3, 4, 3, 3, 3} {
		w.samples = append(w.samples, sample{lat: time.Duration(sec) * time.Second, ok: true})
	}
	s, err := summarize(w, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.p50 != 3*time.Second || s.p95 != 0 {
		t.Errorf("p50, p95 = %v, %v; want 3s and 0", s.p50, s.p95)
	}
	if s.opsPerS != 6.0/21 || s.within != 5.0/6 {
		t.Errorf("ops_per_s, within = %v, %v; want 6/21 and 5/6", s.opsPerS, s.within)
	}
}

func TestSpanSelfTimesAndClosure(t *testing.T) {
	// One routed request with a retried dispatch, one served directly.
	spans := []span{
		{kind: kCapserve, req: 1, start: 560, end: 760},
		{kind: kDispatch, req: 1, start: 200, end: 300}, // died
		{kind: kDispatch, req: 1, start: 500, end: 800},
		{kind: kRouter, req: 1, start: 100, end: 900},
		{kind: kWorkload, req: 1, end: 120, floating: true},
		{kind: kLate, req: 1, start: -50, end: 0},
		{kind: kClient, req: 1, start: 0, end: 1000},

		{kind: kCapserve, req: 2, start: 2100, end: 2500},
		{kind: kWorkload, req: 2, end: 300, floating: true},
		{kind: kClient, req: 2, start: 2000, end: 2600},
	}
	for i := range spans {
		spans[i].parent = -1
	}
	resolve(spans)
	wantParent := []int32{2, 3, 3, 6, 0, -1, -1, 9, 7, -1}
	for i, s := range spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d (%s): parent = %d, want %d", i, kindNames[s.kind], s.parent, wantParent[i])
		}
	}
	if w := spans[4]; w.start != 600 || w.end != 720 {
		t.Errorf("floating workload span placed at [%d,%d], want centred [600,720]", w.start, w.end)
	}
	self := selfTimes(spans)
	wantSelf := []int64{80, 100, 100, 400, 120, 50, 200, 100, 300, 200}
	for i := range spans {
		if self[i] != wantSelf[i] {
			t.Errorf("span %d (%s): self = %d, want %d", i, kindNames[spans[i].kind], self[i], wantSelf[i])
		}
	}
	if c := closure(spans, self); c != 1 {
		t.Errorf("closure = %v, want exactly 1 for a properly nested tree", c)
	}

	// A child that outlives its parent is clamped, and the budget no
	// longer closes: the ratio says so.
	spans = append(spans, span{kind: kCapserve, req: 3, parent: -1, start: 3100, end: 3900},
		span{kind: kClient, req: 3, parent: -1, start: 3000, end: 3500})
	resolve(spans)
	self = selfTimes(spans)
	if got := self[len(spans)-1]; got != 100 {
		t.Errorf("client self with an overhanging child = %d, want 100", got)
	}
	if c := closure(spans, self); c <= 1 {
		t.Errorf("closure = %v, want > 1 when a child outlives its parent", c)
	}

	// An orphan (its root was never recorded) is in nobody's budget.
	orphan := []span{{kind: kCapserve, req: 9, parent: -1, start: 0, end: 10}}
	resolve(orphan)
	if c := closure(orphan, selfTimes(orphan)); c != 0 {
		t.Errorf("closure of a rootless request = %v, want 0", c)
	}
}

func TestRidOf(t *testing.T) {
	for q, want := range map[string]uint32{"n=64&seed=5&rid=1234": 1234, "rid=7": 7, "rid=42&x=1": 42} {
		if got, ok := ridOf(q); !ok || got != want {
			t.Errorf("ridOf(%q) = %d, %v; want %d", q, got, ok, want)
		}
	}
	if _, ok := ridOf("n=64&seed=5"); ok {
		t.Error("ridOf found an id where there is none")
	}
}

func TestRecorderDropsWhenFull(t *testing.T) {
	r := &recorder{base: time.Now(), spans: make([]span, 2)}
	for i := 0; i < 5; i++ {
		r.add(kOp, uint32(i), 0, 1)
	}
	if got := len(r.recorded()); got != 2 {
		t.Errorf("recorded %d spans in a 2-span buffer", got)
	}
}

func TestVerdict(t *testing.T) {
	s := func(med, spread float64) *series { return &series{Median: med, Spread: spread} }
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: bound(0.10)}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: bound(0.10)}
	for _, c := range []struct {
		d     metricDef
		a, b  *series
		noisy bool
		want  string
	}{
		{lower, s(1, 0.02), s(1.05, 0.02), false, "same"},
		{lower, s(1, 0.02), s(1.2, 0.02), false, "worse"},
		{lower, s(1, 0.02), s(0.8, 0.02), false, "better"},
		{higher, s(100, 0.02), s(80, 0.02), false, "worse"},
		{higher, s(100, 0.02), s(120, 0.02), false, "better"},
		{higher, s(100, 0.02), s(80, 0.2), false, "unresolved"},
		{higher, s(100, 0.2), s(80, 0.02), false, "unresolved"},
		{lower, s(1, 0.02), s(1.2, 0.02), true, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b, c.noisy); got != c.want {
			t.Errorf("%s %v→%v (spreads %v, %v, noisy %v): %s, want %s",
				c.d.Name, c.a.Median, c.b.Median, c.a.Spread, c.b.Spread, c.noisy, got, c.want)
		}
	}
}

func TestNoisy(t *testing.T) {
	if noisy(100, 105) || !noisy(100, 115) || !noisy(115, 100) {
		t.Error("noisy must flag a spin loop that disagrees with itself by more than a tenth, either way")
	}
}

// BENCHMARK.json is generated from manifest.go; this is the check that
// nobody edited one without the other.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
}

func TestManifestIsWithinTheContract(t *testing.T) {
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for _, w := range workloadDefs {
		if seen[w.Name] || len(w.Why) > 200 || w.Limit <= 0 {
			t.Errorf("workload %q: repeated name, long why (%d) or no limit", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if runs := 4 + 22*len(workloadDefs); float64(runs)*(runSeconds+8) > 3420-240 {
		t.Errorf("%d runs of %d s (+8 s of set-up, warm-up and start) leave no room for two builds in 3420 s", runs, runSeconds)
	}
}
