package capcluster

// The subscriber half of the push plane: one goroutine per backend
// holds a long-lived GET /debug/credits stream (capserve/feed.go) and
// folds each delta into that backend's credit gauge. The headroom header
// on every dispatched response is the only fallback; Refresh decays a
// gauge that has heard from neither.
//
// Liveness is watchdogged, not assumed: a timer armed *before* the
// subscription dial fires after staleTTL of silence and cancels
// the stream, so a black-holed feed — at connect time or mid-stream —
// costs one TTL, never a hung goroutine. Reconnects back off
// exponentially with the same deterministic per-backend jitter the
// half-open trial gate uses, so a fleet of routers losing the same
// backend does not resubscribe in lockstep. Refresh cuts the wait short
// for a backend whose gauge has gone stale: a backend restarted after a
// long outage is redialled on the next tick, not after a backoff that
// doubled through the whole outage. The watchdog and the backoff run on
// the router's clock.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/capserve"
)

// StartFeeds subscribes to every backend's credit feed, one goroutine
// per backend, each reconnecting with jittered backoff until ctx is
// cancelled. The first delta of every subscription is a snapshot, so
// this is also how a router learns its backends' real capacity at
// start-up. A router without it learns from response headers alone.
// cmd/capserve calls it under the signal context; tests pass their own.
func (r *Router) StartFeeds(ctx context.Context) {
	for _, b := range r.backends {
		go r.feedLoop(ctx, b)
	}
}

func (r *Router) feedLoop(ctx context.Context, b *Backend) {
	var fails uint32
	for {
		err := r.feedOnce(ctx, b)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			fails++
		} else {
			// A clean end (the backend announced draining) still retries
			// — the replacement process will serve the same URL — but
			// from the base backoff, not wherever the failure ladder was.
			fails = 0
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(r.clock.real(jitteredBackoff(b.nameHash, fails+1, feedBackoff))):
		case <-b.feedWake:
		}
	}
}

// feedOnce runs one subscription: dial, then apply deltas until the
// stream ends. Returns nil only for a clean end (the backend's final
// Draining delta); everything else — connect failure, non-200, decode
// trouble ending the scan, watchdog cancellation — is an error that
// advances the reconnect backoff.
func (r *Router) feedOnce(ctx context.Context, b *Backend) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ttl := r.clock.real(staleTTL)

	// The watchdog is armed before the dial on purpose: a backend that
	// black-holes the *connect* (capfault's feed blackhole, a silent
	// firewall) must cost one TTL, not an indefinitely parked goroutine.
	// Every event received rearms it.
	wd := time.AfterFunc(ttl, cancel)
	defer wd.Stop()

	req, err := http.NewRequestWithContext(sctx, http.MethodGet, b.url+capserve.CreditsPath, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("capcluster: %s%s: %s", b.name, capserve.CreditsPath, resp.Status)
	}
	// Every stream opens with a snapshot numbered by the process serving
	// it, and a backend restarted on the same URL counts from 1 again:
	// the seq guard restarts with the stream, or it would drop the new
	// process's deltas until they passed the old one's count. Streams of
	// one backend never overlap — feedLoop runs them one after another.
	b.feedSeq.Store(0)
	b.feedConnects.Add(1)
	b.feedConnected.Store(true)
	defer b.feedConnected.Store(false)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 512), 1<<16)
	for sc.Scan() {
		wd.Reset(ttl)
		if b.feedLine(sc.Text()) {
			// The stream's announced final event: the backend is going
			// away gracefully, and its gauge is already parked at zero.
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("capcluster: %s credit feed closed", b.name)
}

// feedLine is the credit feed's line decoder: it folds one line of the
// event stream into the gauge and reports whether it was the stream's
// final (draining) delta. Lines without the "data: " prefix — event
// separators, comments — are skipped. A data line that is not a JSON
// CreditDelta, or whose headroom fails the header path's sanity window
// (parseHeadroom), is counted in badHeaders and changes nothing else: a
// corrupt or hostile advertisement must not open the floodgates.
func (b *Backend) feedLine(line string) (final bool) {
	raw, ok := strings.CutPrefix(line, "data: ")
	if !ok {
		return false
	}
	var d capserve.CreditDelta
	if json.Unmarshal([]byte(raw), &d) != nil || d.QueueFree < 0 || d.QueueFree > headroomCeiling {
		b.badHeaders.Add(1)
		return false
	}
	b.applyDelta(d.Seq, d.QueueFree, d.Draining)
	return d.Draining
}
