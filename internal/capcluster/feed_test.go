package capcluster

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capserve"
	"repro/internal/capsule"
)

// TestApplyDeltaSeqRegression pins the reordering guard: a delta whose
// sequence number is not strictly newer than the last applied one must
// be dropped — a stale subscriber goroutine racing its post-reconnect
// replacement can never roll the gauge backwards.
func TestApplyDeltaSeqRegression(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, 4, 1024, 2, time.Second, 0)

	if !b.applyDelta(5, 7, false) {
		t.Fatal("first delta (seq 5) not applied")
	}
	if got := b.Credits(); got != 7 {
		t.Fatalf("credits = %d after delta free=7, want 7", got)
	}
	// An older delta (the stale goroutine's late read) must not land.
	if b.applyDelta(3, 1, false) {
		t.Fatal("seq 3 applied after seq 5")
	}
	if got := b.Credits(); got != 7 {
		t.Fatalf("credits = %d after stale delta, want 7 (unchanged)", got)
	}
	// Equal seq is a replay, also dropped.
	if b.applyDelta(5, 1, false) {
		t.Fatal("seq 5 replay applied")
	}
	if got := b.feedDrops.Load(); got != 2 {
		t.Fatalf("feedDrops = %d, want 2", got)
	}
	if got := b.feedDeltas.Load(); got != 1 {
		t.Fatalf("feedDeltas = %d, want 1", got)
	}
	// Newer delta still lands, and a draining delta parks the gauge.
	if !b.applyDelta(6, 3, false) {
		t.Fatal("seq 6 not applied")
	}
	if !b.applyDelta(7, 99, true) {
		t.Fatal("draining delta (seq 7) not applied")
	}
	if got := b.Credits(); got != 0 {
		t.Fatalf("credits = %d after draining delta, want 0", got)
	}
}

// TestCreditGaugeConcurrentSources races every writer the gauge has —
// header learns, push deltas, the Refresh decay pass, and the
// probe/release pairs in between — under -race. The invariants: no
// torn state (credits within [0, max], inflight drains to zero) and
// the seq guard holds (the highest seq wins, drops+deltas add up).
func TestCreditGaugeConcurrentSources(t *testing.T) {
	// A 1 ns StaleTTL makes nearly every Refresh find the gauge stale, so
	// the decay writer really writes between the other two.
	r, _ := newRouter(t, Config{
		Backends:      []string{"http://127.0.0.1:1"},
		Credits:       4,
		MaxCredits:    64,
		FailThreshold: 1000,
		StaleTTL:      time.Nanosecond,
	})
	b := r.Backends()[0]

	const writers = 4
	const rounds = 500
	var wg sync.WaitGroup
	var seq atomic.Uint64
	start := make(chan struct{})

	// Push-delta writers, each applying globally increasing seqs.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				b.applyDelta(seq.Add(1), i%16, false)
			}
		}()
	}
	// Header-learn writers (the response-header path).
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				b.learnHeader(strconv.Itoa((w + i) % 16))
			}
		}(w)
	}
	// The decay writer (the ticker a live caprouter runs) and probers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			r.Refresh()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			if b.probe() {
				b.release()
			}
		}
	}()

	close(start)
	wg.Wait()

	if c := b.Credits(); c < 0 || c > 64 {
		t.Fatalf("credits = %d, want within [0, 64]", c)
	}
	if inf := b.Inflight(); inf != 0 {
		t.Fatalf("inflight = %d after all probes released, want 0", inf)
	}
	if got := b.feedSeq.Load(); got != seq.Load() {
		t.Fatalf("feedSeq = %d, want the highest issued seq %d", got, seq.Load())
	}
	if applied, dropped := b.feedDeltas.Load(), b.feedDrops.Load(); applied+dropped != writers*rounds {
		t.Fatalf("deltas applied (%d) + dropped (%d) = %d, want %d", applied, dropped, applied+dropped, writers*rounds)
	}
}

// TestStaleDecayToDefault drives the decay pass through Router.Refresh
// on an injected clock: while a source is fresh Refresh leaves the
// gauge alone; once feed and headers have both been quiet past StaleTTL
// each Refresh moves it toward Config.Credits — halving the distance
// per step, snapping when adjacent — and a single live delta makes it
// fresh again.
func TestStaleDecayToDefault(t *testing.T) {
	const ttl = 3 * time.Second
	r, _ := newRouter(t, Config{Backends: []string{"http://127.0.0.1:1"}, StaleTTL: ttl})
	b := r.Backends()[0]
	var clock atomic.Int64
	b.now = func() int64 { return clock.Load() }

	// Feed teaches the gauge high; within the TTL nothing decays.
	b.applyDelta(1, 100, false)
	clock.Store(ttl.Nanoseconds())
	r.Refresh()
	if got, decays := b.Credits(), b.staleDecays.Load(); got != 100 || decays != 0 {
		t.Fatalf("fresh gauge: credits %d, %d decays after Refresh; want 100, 0", got, decays)
	}

	// Past the TTL with both sources quiet, Refresh converges:
	// 100 → 52 → 28 → 16 → 10 → 7 → 6 → 5 → 4 (snap), one counted decay
	// per step, monotonically, and stops at the default.
	clock.Store(ttl.Nanoseconds() + 1)
	prev, steps := b.Credits(), uint64(0)
	for ; steps < 20 && b.Credits() != DefaultCredits; steps++ {
		r.Refresh()
		cur := b.Credits()
		if cur >= prev {
			t.Fatalf("decay step %d: credits %d -> %d, want strictly decreasing", steps, prev, cur)
		}
		prev = cur
	}
	if got := b.Credits(); got != DefaultCredits {
		t.Fatalf("credits = %d after decay, want DefaultCredits (%d)", got, DefaultCredits)
	}
	r.Refresh() // at the floor: a no-op, not a counted decay
	if got := b.staleDecays.Load(); got != steps {
		t.Fatalf("staleDecays = %d after %d decay steps and one Refresh at the floor, want %d", got, steps, steps)
	}

	// Decay also recovers a gauge parked at zero with its feed down.
	b.setCredits(0)
	for i := 0; i < 20 && b.Credits() != DefaultCredits; i++ {
		r.Refresh()
	}
	if got := b.Credits(); got != DefaultCredits {
		t.Fatalf("credits = %d after upward decay, want %d", got, DefaultCredits)
	}

	// One live delta ends staleness: the next Refresh leaves it be.
	b.applyDelta(2, 8, false)
	r.Refresh()
	if got := b.Credits(); got != 8 {
		t.Fatalf("credits = %d after a live delta and a Refresh, want 8", got)
	}
}

// TestFeedEndToEnd subscribes a real router to a real capserve backend:
// the subscription's first delta must teach the backend's real capacity
// (with no traffic yet), a Refresh with the feed live must leave the
// gauge alone, and once the feed is severed mid-stream the watchdog must
// cancel the subscription and, past StaleTTL with no traffic to carry
// headers, Refresh must decay the gauge — the capfault-blackhole
// contract, here driven by a transport that silently parks instead.
func TestFeedEndToEnd(t *testing.T) {
	const depth = 8
	rt := capsule.New(capsule.Config{Contexts: 2, Throttle: true})
	t.Cleanup(rt.Close)
	backend, err := capserve.StartBackendOn(capserve.Config{
		Runtime:       rt,
		QueueDepth:    depth,
		FeedHeartbeat: 20 * time.Millisecond,
	}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	t.Cleanup(func() { drain(t, backend) })

	park := &parkingTransport{next: http.DefaultTransport}
	r, _ := newRouter(t, Config{
		Backends:      []string{backend.URL},
		StaleTTL:      200 * time.Millisecond,
		FeedBackoff:   10 * time.Millisecond,
		FeedTransport: park,
	})
	b := r.Backends()[0]
	if got := b.Credits(); got != DefaultCredits {
		t.Fatalf("credits = %d before any feed, want DefaultCredits (%d)", got, DefaultCredits)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.StartFeeds(ctx)

	// The subscription's first delta is a snapshot of an idle backend:
	// it teaches the whole queue depth.
	deadline := time.Now().Add(5 * time.Second)
	for b.feedDeltas.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := b.Credits(); got != depth {
		t.Fatalf("credits = %d after the first delta (%d applied), want the queue depth %d", got, b.feedDeltas.Load(), depth)
	}
	// Heartbeats follow.
	for b.feedDeltas.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := b.feedDeltas.Load(); got < 2 {
		t.Fatalf("feedDeltas = %d after 5s, want >= 2 (initial + heartbeat)", got)
	}
	if !b.feedConnected.Load() {
		t.Fatal("feedConnected = false with a live stream")
	}

	// Steady state: a live feed keeps the gauge fresh, Refresh leaves it.
	r.Refresh()
	if got := b.staleDecays.Load(); got != 0 {
		t.Fatalf("Refresh decayed a feed-fresh gauge (%d decays)", got)
	}

	// Sever the push plane: new reads (and new dials) park forever.
	// The per-event watchdog must cancel the stream within StaleTTL, and
	// once the gauge is stale Refresh must decay it.
	park.blackhole.Store(true)
	deadline = time.Now().Add(5 * time.Second)
	for b.feedConnected.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if b.feedConnected.Load() {
		t.Fatal("subscription still connected 5s after the feed was blackholed")
	}
	ttl := r.cfg.StaleTTL.Nanoseconds()
	deadline = time.Now().Add(5 * time.Second)
	for !b.stale(ttl) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	r.Refresh()
	want := depth + (DefaultCredits-depth)/2
	if got, decays := b.Credits(), b.staleDecays.Load(); got != want || decays != 1 {
		t.Fatalf("after the cut and a stale Refresh: credits %d, %d decays; want %d, 1", got, decays, want)
	}
}

// TestFeedResubscribesRestartedBackend kills a subscribed backend and
// restarts it on the same address, as a supervisor brings a crashed
// process back. The new process numbers its deltas from 1 again, and the
// router's reconnect backoff (here far longer than the test) has not run
// out: one Refresh of the stale gauge must redial the feed at once, and
// the new stream's snapshot must teach the gauge instead of being
// dropped as a replay of the old process's sequence.
func TestFeedResubscribesRestartedBackend(t *testing.T) {
	const depth = 8
	start := func(addr string) (*capserve.Backend, error) {
		rt := capsule.New(capsule.Config{Contexts: 2, Throttle: true})
		t.Cleanup(rt.Close)
		return capserve.StartBackendOn(capserve.Config{
			Runtime:       rt,
			QueueDepth:    depth,
			FeedHeartbeat: 20 * time.Millisecond,
		}, addr, nil)
	}
	old, err := start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartBackendOn: %v", err)
	}
	r, _ := newRouter(t, Config{
		Backends:    []string{old.URL},
		StaleTTL:    100 * time.Millisecond,
		FeedBackoff: time.Minute,
	})
	b := r.Backends()[0]
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.StartFeeds(ctx)
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no %s after 5s (credits %d, stats %+v)", what, b.Credits(), b.Stats())
			}
		}
	}
	wait("run of the old process's heartbeats", func() bool { return b.feedSeq.Load() >= 5 })

	old.Kill()
	wait("end of the old stream", func() bool { return !b.feedConnected.Load() })
	var restarted *capserve.Backend
	for try := 0; try < 20; try++ { // the port was just released
		if restarted, err = start(strings.TrimPrefix(old.URL, "http://")); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restarting on the same address: %v", err)
	}
	t.Cleanup(func() { drain(t, restarted) })

	wait("stale gauge", func() bool { return b.stale(r.cfg.StaleTTL.Nanoseconds()) })
	r.Refresh()
	wait("resubscription teaching the queue depth", func() bool {
		return b.feedConnects.Load() == 2 && b.Credits() == depth
	})
	if got := b.feedDrops.Load(); got != 0 {
		t.Fatalf("%d deltas dropped by the seq guard, want 0", got)
	}
}

// parkingTransport passes requests through until blackhole is set, then
// parks reads (and new dials) until the caller's context gives up —
// the shape of capfault's feed blackhole, without the import.
type parkingTransport struct {
	next      http.RoundTripper
	blackhole atomic.Bool
}

func (p *parkingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.blackhole.Load() {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	resp, err := p.next.RoundTrip(req)
	if err == nil {
		resp.Body = &parkingBody{ReadCloser: resp.Body, p: p, ctx: req.Context()}
	}
	return resp, err
}

type parkingBody struct {
	io.ReadCloser
	p   *parkingTransport
	ctx context.Context
}

func (b *parkingBody) Read(buf []byte) (int, error) {
	if b.p.blackhole.Load() {
		<-b.ctx.Done()
		return 0, b.ctx.Err()
	}
	return b.ReadCloser.Read(buf)
}
