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
	r.Refresh()

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
			r.Refresh() // the scrape ticker a live caprouter runs
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
// three backends' credit feeds, a scrape ticker standing by, and
// capfault blackholing every feed a third of the way in. Before the cut
// the push plane must carry (the ticker skips feed-fresh backends);
// after it the watchdogs cancel the streams and the scrapes take over:
// no gauge goes stale enough to decay, and no client request fails.
func TestFeedBlackholeUnderLoadZeroFailedRequests(t *testing.T) {
	const clients, d = 8, 1200 * time.Millisecond
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
		Backends:      urls,
		Local:         newLocal(t, 2, 256),
		FailThreshold: 2,
		FailWindow:    400 * time.Millisecond,
		Timeout:       5 * time.Second,
		StaleTTL:      300 * time.Millisecond,
		FeedBackoff:   50 * time.Millisecond,
		FeedTransport: inj.FeedTransport(httptune.Transport(8)),
	})
	r.Refresh()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.StartFeeds(ctx)
	for _, b := range r.Backends() {
		for deadline := time.Now().Add(5 * time.Second); b.feedDeltas.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("backend %s: no feed delta after 5s", b.name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The scrape ticker a live caprouter runs.
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
	var skippedPreCut atomic.Uint64
	cut := time.AfterFunc(d/3, func() {
		skippedPreCut.Store(r.RefreshSkipped())
		if _, err := inj.Set(capfault.Rule{Kind: capfault.KindBlackhole, Scope: capfault.ScopeFeed}); err != nil {
			t.Errorf("arming the feed blackhole: %v", err)
		}
	})
	defer cut.Stop()

	ok, failed, _ := stormClients([]string{ts.URL}, clients, 200, d)
	stopped.Store(true)
	<-ticked

	if failed != 0 {
		t.Fatalf("%d client requests failed across the feed blackhole (%d succeeded), want 0", failed, ok)
	}
	if ok == 0 {
		t.Fatal("storm made no requests")
	}
	if skippedPreCut.Load() == 0 {
		t.Fatal("Refresh skipped no scrape before the cut: the push plane never carried")
	}
	// The cut must have bitten, and the scrape fallback must have carried:
	// a tick now scrapes every backend, none is skipped as feed-fresh.
	skipped := r.RefreshSkipped()
	if r.Refresh(); r.RefreshSkipped() != skipped {
		t.Errorf("Refresh still skips scrapes (%d -> %d) with every feed cut", skipped, r.RefreshSkipped())
	}
	for _, b := range r.Backends() {
		if b.feedConnected.Load() {
			t.Errorf("backend %s: feed still connected after the blackhole", b.name)
		}
		if st := b.Stats(); st.FeedDeltas == 0 || st.StaleDecays != 0 {
			t.Errorf("backend %s: %d feed deltas, %d stale decays; want > 0 and 0", b.name, st.FeedDeltas, st.StaleDecays)
		}
	}
}
