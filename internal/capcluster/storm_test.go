package capcluster

// The zero-failed-request storms: a live in-process fleet under
// closed-loop load while something is taken away mid-run — a router
// replica (replica_test.go), backends leaving and rejoining, the credit
// push plane. About a second each, under -race. CI's chaos-, cluster-
// and router-failover-smoke hold the same against real processes.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capfault"
	"repro/internal/capserve"
	"repro/internal/httptune"
)

// stormClients drives targets closed-loop from `clients` goroutines for
// d with a workload mix of size n. Client c prefers targets[c%len] and
// walks the rest on a transport error, as capload -targets does: a dead
// target costs one extra attempt (a failover); a request has failed
// only when the whole walk failed or the answer was not a 200.
func stormClients(targets []string, clients, n int, d time.Duration) (ok, failed, failovers int) {
	wls := []string{"quicksort", "quicksort", "lzw", "dijkstra"}
	client := httptune.Client(clients, 10*time.Second)
	defer client.CloseIdleConnections()
	var okN, failedN, failoverN atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				path := fmt.Sprintf("/run/%s?n=%d&seed=%d", wls[(c+i)%len(wls)], n, c*1000+i%64)
				var resp *http.Response
				for a := range targets {
					r, err := client.Get(targets[(c+a)%len(targets)] + path)
					if err != nil {
						continue
					}
					if a > 0 {
						failoverN.Add(1)
					}
					resp = r
					break
				}
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if resp != nil && resp.StatusCode == http.StatusOK {
					okN.Add(1)
				} else {
					failedN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(okN.Load()), int(failedN.Load()), int(failoverN.Load())
}

// TestChurnLeaveRejoinZeroFailedRequests: four backends, three of which
// take turns leaving gracefully (a drained Close, a deploy) and
// rejoining on the same address under load. A dispatch to a departed
// backend dies fast, the breaker parks it, the rejoin re-admits through
// the ordinary half-open trial — and no client request fails.
func TestChurnLeaveRejoinZeroFailedRequests(t *testing.T) {
	const nBackends, clients = 4, 8
	cfg := capserve.Config{QueueDepth: 8}
	backends := make([]*capserve.Backend, nBackends)
	var urls []string
	for i := range backends {
		b, err := capserve.StartBackendOn(cfg, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("StartBackendOn: %v", err)
		}
		backends[i] = b
		urls = append(urls, b.URL)
	}
	r, ts := newRouter(t, Config{
		Backends:      urls,
		Local:         newLocal(t, 2, 256),
		FailThreshold: 2,
		FailWindow:    400 * time.Millisecond,
		Timeout:       5 * time.Second,
	})

	// Backend 0 never churns: someone has to hold the fort. The rest
	// rotate: leave, dwell, rejoin on the same address, dwell. A leave is
	// not waited for: net/http gives a connection the router dialed but
	// has not used yet 5 s before a drain may close it, and a deploy's old
	// process lingering that long is part of the storm.
	const dwell = 100 * time.Millisecond
	var leaves, joins int
	var drains sync.WaitGroup
	var stopped atomic.Bool
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; !stopped.Load(); i++ {
			victim := 1 + i%(nBackends-1)
			addr := strings.TrimPrefix(backends[victim].URL, "http://")
			drains.Add(1)
			go func(b *capserve.Backend) {
				defer drains.Done()
				drain(t, b)
			}(backends[victim])
			backends[victim] = nil
			leaves++
			// A failed bind (address lingering) leaves the slot down
			// another dwell; clients must not notice that either.
			for backends[victim] == nil && !stopped.Load() {
				time.Sleep(dwell)
				backends[victim], _ = capserve.StartBackendOn(cfg, addr, nil)
			}
			if backends[victim] == nil {
				return
			}
			joins++
			r.Refresh() // the decay ticker a live caprouter runs
			time.Sleep(dwell)
		}
	}()

	ok, failed, _ := stormClients([]string{ts.URL}, clients, 200, time.Second)
	stopped.Store(true)
	<-churned
	drains.Wait()
	for _, b := range backends {
		if b != nil {
			drain(t, b)
		}
	}

	if failed != 0 {
		t.Fatalf("%d client requests failed across %d leaves / %d joins (%d succeeded), want 0", failed, leaves, joins, ok)
	}
	if ok == 0 {
		t.Fatal("storm made no requests")
	}
	if leaves == 0 || joins == 0 {
		t.Fatalf("%d leaves / %d joins: the fleet never churned", leaves, joins)
	}
}

// TestFeedBlackholeUnderLoadZeroFailedRequests: a router subscribed to
// three backends' credit feeds, the Refresh decay ticker running, and
// capfault blackholing every feed a third of the way in. Before the cut
// the push plane must carry (deltas keep landing on every backend);
// after it the watchdogs cancel the streams and the response headers
// keep every gauge fresh — no decay under load, and no client request
// fails. Once the storm has been quiet for StaleTTL, nothing keeps the
// gauges fresh any more, and Refresh must decay every one of them.
func TestFeedBlackholeUnderLoadZeroFailedRequests(t *testing.T) {
	const clients, d, ttl = 8, 1200 * time.Millisecond, 300 * time.Millisecond
	var urls []string
	for i := 0; i < 3; i++ {
		b, err := capserve.StartBackendOn(capserve.Config{QueueDepth: 8, FeedHeartbeat: 50 * time.Millisecond}, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("StartBackendOn: %v", err)
		}
		t.Cleanup(func() { drain(t, b) })
		urls = append(urls, b.URL)
	}
	inj := capfault.New(0xFEEDC)
	r, ts := newRouter(t, Config{
		Backends: urls,
		Local:    newLocal(t, 2, 256),
		// A decay target no header can teach: a learned ceiling is this
		// router's in-flight dispatches plus the advertised free slots,
		// which sum to about the queue depth of 8, so the post-storm decay
		// is observable on every backend.
		Credits:       1,
		FailThreshold: 2,
		FailWindow:    400 * time.Millisecond,
		Timeout:       5 * time.Second,
		StaleTTL:      ttl,
		FeedBackoff:   50 * time.Millisecond,
		FeedTransport: inj.FeedTransport(httptune.Transport(8)),
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.StartFeeds(ctx)
	start := make([]uint64, len(urls))
	for i, b := range r.Backends() {
		for deadline := time.Now().Add(5 * time.Second); b.feedDeltas.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("backend %s: no feed delta after 5s", b.name)
			}
			time.Sleep(5 * time.Millisecond)
		}
		start[i] = b.feedDeltas.Load()
	}

	// The decay ticker a live caprouter runs.
	var stopped atomic.Bool
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for !stopped.Load() {
			time.Sleep(50 * time.Millisecond)
			r.Refresh()
		}
	}()
	// Dispatch traffic never matches a ScopeFeed rule.
	preCut := make([]uint64, len(urls))
	cutDone := make(chan struct{})
	cut := time.AfterFunc(d/3, func() {
		defer close(cutDone)
		for i, b := range r.Backends() {
			preCut[i] = b.feedDeltas.Load()
		}
		if _, err := inj.Set(capfault.Rule{Kind: capfault.KindBlackhole, Scope: capfault.ScopeFeed}); err != nil {
			t.Errorf("arming the feed blackhole: %v", err)
		}
	})
	defer cut.Stop()

	ok, failed, _ := stormClients([]string{ts.URL}, clients, 200, d)
	stopped.Store(true)
	<-ticked
	<-cutDone

	if failed != 0 {
		t.Fatalf("%d client requests failed across the feed blackhole (%d succeeded), want 0", failed, ok)
	}
	if ok == 0 {
		t.Fatal("storm made no requests")
	}
	for i, b := range r.Backends() {
		if preCut[i] <= start[i] {
			t.Errorf("backend %s: feed deltas %d -> %d before the cut; the push plane never carried", b.name, start[i], preCut[i])
		}
		if b.feedConnected.Load() {
			t.Errorf("backend %s: feed still connected after the blackhole", b.name)
		}
		// The feeds are cut, so only the headers kept these gauges fresh.
		if st := b.Stats(); st.StaleDecays != 0 {
			t.Errorf("backend %s: %d stale decays under load with headers flowing, want 0", b.name, st.StaleDecays)
		}
	}

	// Quiet: no deltas, no traffic, no headers. Past the TTL the decay
	// pass is the only thing left that moves a gauge.
	time.Sleep(ttl + 50*time.Millisecond)
	r.Refresh()
	for _, b := range r.Backends() {
		if st := b.Stats(); st.StaleDecays == 0 {
			t.Errorf("backend %s: no stale decay %v after the storm with every feed cut (credits %d)", b.name, ttl, st.Credits)
		}
	}
}
