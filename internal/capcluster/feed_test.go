package capcluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
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
// header learns, push deltas, scrape-style setCredits, and the
// probe/release pairs in between — under -race. The invariants: no
// torn state (credits within [0, max], inflight drains to zero) and
// the seq guard holds (the highest seq wins, drops+deltas add up).
func TestCreditGaugeConcurrentSources(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, 4, 64, 1000, time.Second, 0)

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
				b.learn((w + i) % 16)
				b.markFresh()
			}
		}(w)
	}
	// Scrape writers (Refresh's setCredits-shaped learn) and probers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			b.setCredits(i % 16)
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

// TestStaleDecayToDefault drives the TTL machinery with an injected
// clock: a backend whose every source goes quiet decays toward
// DefaultCredits — halving the distance per step, snapping when
// adjacent — and a single live delta makes it fresh again.
func TestStaleDecayToDefault(t *testing.T) {
	b := newBackend("http://127.0.0.1:1", "b0", 0, DefaultCredits, 1024, 2, time.Second, 0)
	var clock atomic.Int64
	clock.Store(1) // feedNS treats 0 as "never connected"
	b.now = func() int64 { return clock.Load() }
	ttl := (3 * time.Second).Nanoseconds()

	// Feed teaches the gauge high, then goes silent.
	b.applyDelta(1, 100, false)
	if b.stale(ttl) {
		t.Fatal("stale immediately after a delta")
	}
	if !b.feedFresh(ttl) {
		t.Fatal("feed not fresh immediately after a delta")
	}

	clock.Store(ttl + 2) // the delta landed at t=1: now past 1+ttl
	if !b.stale(ttl) {
		t.Fatal("not stale after TTL of silence")
	}
	if b.feedFresh(ttl) {
		t.Fatal("feed still fresh after TTL of silence")
	}

	// Decay converges: 100 → 52 → 28 → 16 → 10 → 7 → 5 → 4 (snap),
	// monotonically, and stops at the default.
	prev := b.Credits()
	for i := 0; i < 20 && b.Credits() != DefaultCredits; i++ {
		b.decayStale(DefaultCredits)
		cur := b.Credits()
		if cur >= prev {
			t.Fatalf("decay step %d: credits %d -> %d, want strictly decreasing", i, prev, cur)
		}
		prev = cur
	}
	if got := b.Credits(); got != DefaultCredits {
		t.Fatalf("credits = %d after decay, want DefaultCredits (%d)", got, DefaultCredits)
	}
	decays := b.staleDecays.Load()
	b.decayStale(DefaultCredits) // at the floor: a no-op, not a counted decay
	if b.staleDecays.Load() != decays {
		t.Fatal("decayStale counted a step at the default floor")
	}

	// Decay also converges upward from a stale-zero gauge.
	b.setCredits(0)
	for i := 0; i < 20 && b.Credits() != DefaultCredits; i++ {
		b.decayStale(DefaultCredits)
	}
	if got := b.Credits(); got != DefaultCredits {
		t.Fatalf("credits = %d after upward decay, want %d", got, DefaultCredits)
	}

	// One live delta ends staleness.
	b.applyDelta(2, 8, false)
	if b.stale(ttl) {
		t.Fatal("stale right after a live delta")
	}
}

// TestRefreshSkipsFreshFeed pins satellite (a): a backend whose push
// feed updated within StaleTTL is not scraped by Refresh — the skip is
// counted — while a feed-silent backend still gets the fallback scrape.
func TestRefreshSkipsFreshFeed(t *testing.T) {
	var scrapes atomic.Int64
	backend := capserveMetricsStub(t, &scrapes)

	r, _ := newRouter(t, Config{Backends: []string{backend.URL}, StaleTTL: time.Hour})
	b := r.Backends()[0]

	// Feed-silent: Refresh scrapes.
	r.Refresh()
	if scrapes.Load() != 1 {
		t.Fatalf("scrapes = %d with no feed, want 1", scrapes.Load())
	}
	if got := r.RefreshSkipped(); got != 0 {
		t.Fatalf("RefreshSkipped = %d with no feed, want 0", got)
	}

	// Fresh feed: Refresh skips the wire entirely.
	b.applyDelta(1, 8, false)
	r.Refresh()
	r.Refresh()
	if scrapes.Load() != 1 {
		t.Fatalf("scrapes = %d with a fresh feed, want still 1", scrapes.Load())
	}
	if got := r.RefreshSkipped(); got != 2 {
		t.Fatalf("RefreshSkipped = %d, want 2", got)
	}
}

// capserveMetricsStub serves just enough /metrics for refreshBackend,
// counting scrapes.
func capserveMetricsStub(t *testing.T, scrapes *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/metrics" {
			scrapes.Add(1)
		}
		w.Write([]byte("capserve_queue_depth 8\ncapserve_queue_occupancy 0\n"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFeedEndToEnd subscribes a real router to a real capserve backend:
// deltas must flow (the initial snapshot at least), Refresh must start
// skipping, and when the feed is severed mid-stream the watchdog must
// cancel the subscription and hand the backend back to the scrape path
// without the gauge going stale — the capfault-blackhole contract, here
// driven by a transport that silently parks instead.
func TestFeedEndToEnd(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 2, Throttle: true})
	t.Cleanup(rt.Close)
	backend, err := capserve.StartBackendOn(capserve.Config{
		Runtime:       rt,
		QueueDepth:    8,
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

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.StartFeeds(ctx)

	// The subscription's initial delta plus heartbeats must land.
	deadline := time.Now().Add(5 * time.Second)
	for b.feedDeltas.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := b.feedDeltas.Load(); got < 2 {
		t.Fatalf("feedDeltas = %d after 5s, want >= 2 (initial + heartbeat)", got)
	}
	if !b.feedConnected.Load() {
		t.Fatal("feedConnected = false with a live stream")
	}

	// Steady state: the push plane makes scrapes unnecessary.
	r.Refresh()
	if got := r.RefreshSkipped(); got != 1 {
		t.Fatalf("RefreshSkipped = %d with a live feed, want 1", got)
	}

	// Sever the push plane: new reads (and new dials) park forever.
	// The per-event watchdog must cancel the stream within StaleTTL, and
	// once feedFresh expires Refresh must scrape again — the fallback.
	park.blackhole.Store(true)
	deadline = time.Now().Add(5 * time.Second)
	for b.feedConnected.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if b.feedConnected.Load() {
		t.Fatal("subscription still connected 5s after the feed was blackholed")
	}
	deadline = time.Now().Add(5 * time.Second)
	for b.feedFresh(r.cfg.StaleTTL.Nanoseconds()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	skipped := r.RefreshSkipped()
	r.Refresh() // must scrape (feed stale), not skip
	if got := r.RefreshSkipped(); got != skipped {
		t.Fatalf("Refresh skipped a feed-dead backend (skips %d -> %d)", skipped, got)
	}
	if b.stale(r.cfg.StaleTTL.Nanoseconds()) {
		t.Fatal("backend stale right after a fallback scrape")
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
