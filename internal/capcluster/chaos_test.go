package capcluster

// Hardening tests: the failure modes capfault exists to reproduce —
// black holes, trickles, mid-body deaths, corrupt headers — and the
// dispatch-ladder machinery that contains each one.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capfault"
	"repro/internal/capserve"
)

// okBackend is a fake capserve backend answering 200 with a fixed body
// and an honest headroom header.
func okBackend(t *testing.T, body string, free int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(capserve.HeaderQueueFree, fmt.Sprint(free))
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestAttemptDeadlineBoundsBlackhole is the acceptance criterion for the
// per-attempt deadline: with one backend black-holed by capfault, every
// client request still completes successfully, and the black hole costs
// at most one AttemptTimeout before the ladder moves on — not the full
// request Timeout. Run with -race.
func TestAttemptDeadlineBoundsBlackhole(t *testing.T) {
	inj := capfault.New(1)
	victim := okBackend(t, "victim", 4)
	healthy := okBackend(t, "healthy", 4)
	victimHost := strings.TrimPrefix(victim.URL, "http://")
	if _, err := inj.Set(capfault.Rule{Kind: capfault.KindBlackhole, Backend: victimHost}); err != nil {
		t.Fatalf("Set: %v", err)
	}

	const attempt = 150 * time.Millisecond
	r, ts := newRouter(t, Config{
		Backends:       []string{victim.URL, healthy.URL},
		Transport:      inj.Transport(http.DefaultTransport),
		Timeout:        5 * time.Second,
		AttemptTimeout: attempt,
		FailThreshold:  100, // keep the breaker out of it: every request may eat the black hole
	})

	var wg sync.WaitGroup
	var worst atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				start := time.Now()
				resp, body := get(t, ts.URL+"/run/quicksort?n=64&seed=1")
				el := time.Since(start)
				for {
					w := worst.Load()
					if int64(el) <= w || worst.CompareAndSwap(w, int64(el)) {
						break
					}
				}
				if resp.StatusCode != 200 {
					t.Errorf("status %d body %q with a black-holed backend", resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()

	// Even a request that drew the victim first pays one attempt slice
	// plus the healthy dispatch — far under the 5 s total budget. The
	// bound is generous (3×attempt) for scheduler noise; what it must
	// never approach is Timeout.
	if w := time.Duration(worst.Load()); w > 3*attempt {
		t.Fatalf("worst request took %v; a black hole must cost ~one %v attempt", w, attempt)
	}
	if r.Backends()[0].deaths.Load() == 0 {
		t.Fatalf("black-holed backend recorded no deaths; the attempt deadline never fired")
	}
}

// TestSlowBackendEjectsAndReadmits covers the latency-outlier ejection:
// a trickling-but-2xx backend trips CheckSlow into the ordinary
// breaker/probation machinery, and a recovered backend re-admits through
// the half-open trial.
func TestSlowBackendEjectsAndReadmits(t *testing.T) {
	r, _ := newRouter(t, Config{
		Backends:       []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"},
		SlowFactor:     4,
		SlowMinP99:     10 * time.Millisecond,
		SlowMinSamples: 16,
		FailWindow:     time.Second,
	})
	victim, h1, h2 := r.Backends()[0], r.Backends()[1], r.Backends()[2]
	var clock atomic.Int64
	victim.now = func() int64 { return clock.Load() }

	// Interval 1: victim answers 2xx at 200 ms p99, peers at 1 ms.
	for i := 0; i < 32; i++ {
		victim.dispatchLatency.Observe(200 * time.Millisecond)
		h1.dispatchLatency.Observe(time.Millisecond)
		h2.dispatchLatency.Observe(time.Millisecond)
	}
	if n := r.CheckSlow(); n != 1 {
		t.Fatalf("CheckSlow ejected %d backends, want 1 (the victim)", n)
	}
	if victim.ejections.Load() != 1 || !victim.Broken() {
		t.Fatalf("victim ejections=%d broken=%v; want 1, true", victim.ejections.Load(), victim.Broken())
	}
	if h1.Broken() || h2.Broken() {
		t.Fatalf("healthy peers ejected alongside the victim")
	}
	if victim.probe() {
		t.Fatal("probe granted on an ejected backend")
	}
	// Deaths are backend failures; ejection is router policy, not a death.
	if victim.deaths.Load() != 0 {
		t.Fatalf("ejection recorded %d deaths; want 0", victim.deaths.Load())
	}

	// A second interval with no new samples must not re-eject anyone
	// (deltas, not cumulative totals).
	if n := r.CheckSlow(); n != 0 {
		t.Fatalf("CheckSlow with no new samples ejected %d", n)
	}

	// Re-admission: once the ejection's ring entries age out, the next
	// probe is the half-open trial, and a response closes probation.
	clock.Store(2 * time.Second.Nanoseconds())
	if victim.Broken() {
		t.Fatal("still broken after the window drained")
	}
	if !victim.probe() {
		t.Fatal("half-open trial refused after ejection aged out")
	}
	victim.release()
	victim.recover()
	if !victim.probe() {
		t.Fatal("probe refused after recovery closed probation")
	}
	victim.release()
}

// TestTrialBackoffJitter pins the jittered exponential backoff between
// failed half-open trials: each consecutive failure pushes the next
// trial out ~2× further, the jitter stays inside [0.5×, 1.5×) of the
// exponential base, and distinct backends jitter differently.
func TestTrialBackoffJitter(t *testing.T) {
	const base = 100 * time.Millisecond
	mk := func(url string) (*Backend, *atomic.Int64) {
		b := newBackend(url, "b", 0, 4, 1024, 2, time.Second, base)
		var clock atomic.Int64
		b.now = func() int64 { return clock.Load() }
		return b, &clock
	}
	b, clock := mk("http://127.0.0.1:1")

	// Trip the breaker.
	b.fail()
	b.fail()
	if !b.Broken() {
		t.Fatal("not broken after threshold failures")
	}

	var delays []time.Duration
	for trial := 1; trial <= 4; trial++ {
		// Age the window out and clear any pending backoff.
		clock.Store(clock.Load() + 10*time.Second.Nanoseconds())
		if next := b.nextTrialNS.Load(); next > clock.Load() {
			clock.Store(next)
		}
		if !b.probe() {
			t.Fatalf("trial %d refused with window quiet and backoff elapsed", trial)
		}
		before := clock.Load()
		b.release()
		b.fail() // failed trial: schedules the next backoff
		delays = append(delays, time.Duration(b.nextTrialNS.Load()-before))

		// Before the backoff elapses the trial is refused even though the
		// ring is quiet.
		clock.Store(before + 10*time.Second.Nanoseconds())
		if b.nextTrialNS.Load() > clock.Load() {
			t.Fatalf("trial %d: backoff %v not elapsed after 10s?", trial, delays[trial-1])
		}
	}
	for i, d := range delays {
		expBase := base << i
		if d < expBase/2 || d >= expBase*3/2 {
			t.Fatalf("trial-fail %d backoff %v outside [%v, %v)", i+1, d, expBase/2, expBase*3/2)
		}
	}
	if !(delays[3] > delays[1] && delays[1] > delays[0]/2) {
		t.Fatalf("backoffs not growing: %v", delays)
	}

	// The backoff gate alone refuses a trial: quiet ring, pending jitter.
	b2, clock2 := mk("http://127.0.0.1:2")
	b2.fail()
	b2.fail()
	clock2.Store(10 * time.Second.Nanoseconds())
	if !b2.probe() {
		t.Fatal("b2 first trial refused")
	}
	b2.release()
	b2.fail()
	clock2.Store(clock2.Load() + 5*time.Second.Nanoseconds()) // ring quiet again
	save := b2.nextTrialNS.Load()
	b2.nextTrialNS.Store(clock2.Load() + time.Hour.Nanoseconds())
	if b2.probe() {
		t.Fatal("trial granted before the jittered backoff elapsed")
	}
	b2.nextTrialNS.Store(save)

	// Different backend identities draw different jitter for the same
	// failure count (decorrelated trials across routers/backends).
	b3, clock3 := mk("http://127.0.0.1:3")
	b3.fail()
	b3.fail()
	clock3.Store(10 * time.Second.Nanoseconds())
	if !b3.probe() {
		t.Fatal("b3 trial refused")
	}
	b3.release()
	b3.fail()
	d2 := b2.nextTrialNS.Load() - clock2.Load()
	d3 := b3.nextTrialNS.Load() - clock3.Load()
	if d2 == d3 {
		t.Fatalf("backends b2 and b3 drew identical jitter %v — trials would synchronize", time.Duration(d2))
	}

	// recover resets the backoff entirely.
	b.recover()
	if b.trialFails.Load() != 0 || b.nextTrialNS.Load() != 0 {
		t.Fatalf("recover left backoff state: fails=%d next=%d", b.trialFails.Load(), b.nextTrialNS.Load())
	}

	// The feed-reconnect ladder is the same function, one step behind
	// (a clean stream end still waits the base): with `fails` consecutive
	// subscription failures behind it, feedLoop waits
	// jitteredBackoff(hash, fails+1, base) — exactly the delay after
	// fails+1 failed trials of the same backend at the same base.
	for fails, d := range delays {
		if got := jitteredBackoff(b.nameHash, uint32(fails)+1, base.Nanoseconds()); got != d {
			t.Fatalf("feed backoff after %d failures = %v, trial backoff after %d = %v; want one formula", fails, got, fails+1, d)
		}
	}
}

// TestLearnRejectsCorruptHeader is the fast-credit-feed clamp: garbage
// X-Capserve-Queue-Free values are dropped and counted, never learned.
func TestLearnRejectsCorruptHeader(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{"17", 17, true},
		{"1048576", 1 << 20, true},
		{"-3", 0, false},
		{"1048577", 0, false}, // above headroomCeiling: absurd, not big
		{"99999999999", 0, false},
		{"banana", 0, false},
		{"12.5", 0, false},
		{"", 0, false},
	} {
		got, ok := parseHeadroom(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("parseHeadroom(%q) = %d,%v; want %d,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}

	// Through the wire: a backend advertising garbage serves fine but
	// teaches nothing, and the rejection is counted per backend.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(capserve.HeaderQueueFree, "99999999999")
		io.WriteString(w, "ok")
	}))
	defer evil.Close()
	r, ts := newRouter(t, Config{Backends: []string{evil.URL}, Credits: 4})
	resp, body := get(t, ts.URL+"/run/quicksort?n=64&seed=1")
	if resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("resp %d %q", resp.StatusCode, body)
	}
	b := r.Backends()[0]
	if b.badHeaders.Load() != 1 {
		t.Fatalf("badHeaders = %d, want 1", b.badHeaders.Load())
	}
	if c := b.Credits(); c != 4 {
		t.Fatalf("credits = %d after corrupt header, want the untouched initial 4", c)
	}
}

// TestMidBodyDeathRetries: with the buffered relay, a backend dying
// mid-body is a retryable death — the client sees a complete response
// from another backend, never a truncated 200.
func TestMidBodyDeathRetries(t *testing.T) {
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Promise 64 bytes, deliver 10, abort: the classic mid-body death.
		w.Header().Set("Content-Length", "64")
		w.WriteHeader(200)
		io.WriteString(w, "partial...")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer victim.Close()
	healthy := okBackend(t, "complete response body", 4)

	r, ts := newRouter(t, Config{
		Backends:      []string{victim.URL, healthy.URL},
		FailThreshold: 100, // keep retries flowing to the victim
	})
	for i := 0; i < 12; i++ {
		resp, body := get(t, ts.URL+"/run/quicksort?n=64&seed=1")
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if string(body) != "complete response body" {
			t.Fatalf("request %d: body %q leaked a truncated relay", i, body)
		}
	}
	if r.Backends()[0].deaths.Load() == 0 {
		t.Fatal("victim never probed — test proved nothing; placement changed?")
	}
	if got := r.Backends()[0].served.Load(); got != 0 {
		t.Fatalf("victim credited with %d served responses despite truncating all of them", got)
	}
}

// TestOversizedBodyStreams covers the buffered→streaming hand-off: a
// body past MaxBody (with a lying Content-Length) still relays intact
// through prefixedBody.
func TestOversizedBodyStreams(t *testing.T) {
	big := strings.Repeat("x", 300)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// No Content-Length: chunked, so the relay starts buffering and
		// discovers the overflow mid-read.
		w.(http.Flusher).Flush()
		io.WriteString(w, big)
	}))
	defer backend.Close()
	r, ts := newRouter(t, Config{Backends: []string{backend.URL}, MaxBody: 100})
	resp, body := get(t, ts.URL+"/run/quicksort?n=64&seed=1")
	if resp.StatusCode != 200 || string(body) != big {
		t.Fatalf("oversized relay: status %d, %d bytes (want 200, %d)", resp.StatusCode, len(body), len(big))
	}
	if r.Backends()[0].served.Load() != 1 {
		t.Fatalf("served = %d, want 1", r.Backends()[0].served.Load())
	}
}

// TestClientGoneDuringTrial: a half-open trial whose routed client hangs
// up resolves via abortTrial back to probationWait — the slot is not
// leaked in probationTrial, and a later trial can still run.
func TestClientGoneDuringTrial(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	var mode atomic.Int32 // 0: fail with 500; 1: block
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode.Load() == 0 {
			http.Error(w, "boom", 500)
			return
		}
		entered <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer backend.Close()

	r, ts := newRouter(t, Config{
		Backends:      []string{backend.URL},
		FailThreshold: 2,
		FailWindow:    100 * time.Millisecond,
		TrialBackoff:  time.Nanosecond, // the jitter gate is not under test here
	})
	b := r.Backends()[0]

	// Trip the breaker with two 5xxs (requests fall back locally, fine).
	for i := 0; i < 2; i++ {
		resp, _ := get(t, ts.URL+"/run/quicksort?n=64&seed=1")
		if resp.StatusCode != 200 {
			t.Fatalf("fallback status %d", resp.StatusCode)
		}
	}
	if !b.Broken() {
		t.Fatal("breaker not tripped")
	}

	// Let the window drain, then send the trial request with a client
	// context we cancel once the backend holds it.
	mode.Store(1)
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/run/quicksort?n=64&seed=1", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("trial request never reached the backend")
	}
	if b.probation.Load() != probationTrial {
		t.Fatalf("probation = %d mid-trial, want probationTrial", b.probation.Load())
	}
	cancel()
	<-done

	// abortTrial must hand the slot back: Wait, not a stuck Trial.
	deadline := time.Now().Add(2 * time.Second)
	for b.probation.Load() != probationWait {
		if time.Now().After(deadline) {
			t.Fatalf("probation = %d after clientGone trial, want probationWait", b.probation.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b.deaths.Load() != 2 {
		t.Fatalf("deaths = %d; the aborted trial must not be charged to the backend", b.deaths.Load())
	}

	// And the machinery still works: the aborted trial recorded no
	// failure, so once the original trip ages out the slot is claimable
	// by the next probe.
	time.Sleep(150 * time.Millisecond)
	if !b.probe() {
		t.Fatal("trial slot not claimable after abortTrial")
	}
	b.release()
	b.abortTrial()
}

// TestFailRingStormRace hammers the failRing's documented benign
// overwrite races (concurrent record vs record and record vs atLeast)
// together with probe/fail/recover/eject from many goroutines. Its
// value is under -race: the "benign" claim is only benign if the race
// detector agrees the accesses are synchronized atomics.
func TestFailRingStormRace(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, 64, 1024, 4, 50*time.Millisecond, time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (g + i) % 5 {
				case 0:
					if b.probe() {
						b.release()
					}
				case 1:
					b.fail()
				case 2:
					b.recover()
				case 3:
					b.Broken()
				case 4:
					b.eject()
				}
			}
		}(g)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Invariant, not crash-freedom alone: the gauge never leaks inflight.
	if inf := b.Inflight(); inf != 0 {
		t.Fatalf("inflight = %d after the storm, want 0", inf)
	}
}
