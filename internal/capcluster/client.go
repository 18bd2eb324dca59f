package capcluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/capserve"
	"repro/internal/captrace"
	"repro/internal/httptune"
)

// dispatchIdleConnsFloor is the minimum per-backend idle-connection
// pool, for fleets configured with tiny credit ceilings.
const dispatchIdleConnsFloor = 64

// defaultTransport is the dispatch transport when Config.Transport is
// nil: http.DefaultTransport's dialer and timeouts, with an idle pool
// sized to the fleet's real concurrency bound. Every concurrently
// admitted request holds one connection to its backend, and admissions
// per backend are capped by the credit gauge — whose ceiling is
// maxCredits — so an idle pool at least that wide means a release never
// closes a connection the next dispatch burst will want (net/http's
// default of 2 idle conns per host re-dials on nearly every dispatch,
// measured as the server being slow when it is really the router
// churning TCP).
func defaultTransport(maxCredits int) http.RoundTripper {
	perHost := maxCredits
	if perHost < dispatchIdleConnsFloor {
		perHost = dispatchIdleConnsFloor
	}
	return httptune.Transport(perHost)
}

// DefaultTransport returns the dispatch transport New builds when
// Config.Transport is nil, sized for maxCredits concurrent dispatches
// per backend (0 = the default ceiling). Callers that need to interpose
// on the wire — cmd/caprouter wrapping dispatches in a capfault
// injector — start from this so wrapping does not change pooling
// behavior.
func DefaultTransport(maxCredits int) http.RoundTripper {
	if maxCredits == 0 {
		maxCredits = DefaultMaxCredits
	}
	return defaultTransport(maxCredits)
}

// outcome classifies one remote dispatch attempt.
type outcome int

const (
	// dispatched: a response (2xx or proxied 4xx) was written to the
	// client. The request is done.
	dispatched outcome = iota
	// shed: the backend 503ed — our credit estimate was stale, the
	// backend is alive and said so. Not a death; try the next backend.
	shed
	// died: transport error, timeout or 5xx — a cluster-scope kthr,
	// recorded in the backend's failure ring. Try the next backend.
	died
	// clientGone: our own client hung up mid-dispatch. Nobody is waiting;
	// stop routing.
	clientGone
)

// dispatch forwards one admitted (probe-granted) request to b and relays
// the response. It owns the granted credit: every path releases exactly
// once, after the response — and its headroom header, the credit feed's
// fallback — has been consumed. A traced request's ID is re-stamped on the
// outbound header, so the backend adopts the same identity and its
// serving/runtime events join the router's route span in one waterfall.
//
// The attempt runs under min(Config.AttemptTimeout, time left until
// deadline) — the hardening capfault's black-hole forced: a backend
// that accepts and stalls costs the request one attempt slice, not the
// whole budget, and the walk moves on. Responses up to MaxBody are
// buffered before anything is written to the client, so a backend dying
// mid-body is a retryable death (the next backend gets the request)
// instead of a truncated 200.
func (r *Router) dispatch(w http.ResponseWriter, req *http.Request, b *Backend, body []byte, deadline time.Time, tid uint64, traced bool) outcome {
	defer b.release()
	b.dispatches.Add(1)

	attempt := r.cfg.AttemptTimeout
	if rem := time.Until(deadline); rem < attempt {
		attempt = rem
	}
	if attempt <= 0 {
		// Budget exhausted before this attempt started: charge the walk,
		// not the backend.
		return died
	}
	ctx, cancel := context.WithTimeout(req.Context(), attempt)
	defer cancel()

	target := b.url + req.URL.Path
	if req.URL.RawQuery != "" {
		target += "?" + req.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(ctx, req.Method, target, rd)
	if err != nil {
		b.fail()
		return died
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	// Propagate only traced identities: a backend adopting a header
	// always traces it, so forwarding a sampled-out ID would defeat the
	// router's sampling decision one tier down.
	if traced && tid != 0 {
		out.Header.Set(captrace.HeaderTraceID, captrace.FormatID(tid))
	}

	resp, err := r.client.Do(out)
	if err != nil {
		if req.Context().Err() != nil {
			// The abort was ours, not the backend's: no death — but a
			// trial dispatch must not leave its probation slot dangling.
			b.abortTrial()
			return clientGone
		}
		// The parent context is fine, so the error is the backend's —
		// including the attempt deadline firing: a black-hole is a death.
		b.fail()
		return died
	}
	defer resp.Body.Close()

	// Any response at all means the backend is alive: close probation
	// before classifying the status.
	b.recover()

	// The feed's fallback: every capserve response advertises its queue
	// headroom at the instant it answered, so a backend carrying traffic
	// keeps its gauge fresh even with its push feed cut.
	if hdr := resp.Header.Get(capserve.HeaderQueueFree); hdr != "" {
		b.learnHeader(hdr)
	}

	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		b.sheds.Add(1)
		return shed
	case resp.StatusCode >= 500:
		io.Copy(io.Discard, resp.Body)
		b.fail()
		return died
	}

	// 2xx and 4xx proxy through. Bodies up to MaxBody are buffered
	// first — the client has seen nothing yet, so a mid-body death stays
	// retryable — and the attempt deadline covers the read, so a
	// trickling body slower than the slice is a death too, not a stall.
	if resp.ContentLength <= r.cfg.MaxBody {
		var buf bytes.Buffer
		if n, err := io.Copy(&buf, io.LimitReader(resp.Body, r.cfg.MaxBody+1)); err == nil && n <= r.cfg.MaxBody {
			h := w.Header()
			if ct := resp.Header.Get("Content-Type"); ct != "" {
				h.Set("Content-Type", ct)
			}
			h.Set(HeaderRoute, "remote")
			h.Set(HeaderBackend, b.name)
			h.Set("Content-Length", strconv.Itoa(buf.Len()))
			w.WriteHeader(resp.StatusCode)
			w.Write(buf.Bytes())
			b.served.Add(1)
			return dispatched
		} else if err != nil {
			if req.Context().Err() != nil {
				// Our client hung up while we buffered; the backend is
				// blameless and nobody is waiting.
				return clientGone
			}
			b.fail()
			return died
		}
		// n > MaxBody with a lying/absent Content-Length: fall through to
		// streaming what was buffered plus the rest.
		resp.Body = &prefixedBody{head: buf.Bytes(), tail: resp.Body}
	}

	// Oversized body: stream it. The client sees bytes as they arrive,
	// so a mid-body death here is unrecoverable — headers are gone; all
	// that's left is the accounting.
	h := w.Header()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	h.Set(HeaderRoute, "remote")
	h.Set(HeaderBackend, b.name)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		if req.Context().Err() == nil {
			b.fail()
		}
		return dispatched
	}
	b.served.Add(1)
	return dispatched
}

// headroomCeiling bounds a believable X-Capserve-Queue-Free value and a
// feed delta's queue_free. The largest honest headroom is the backend's
// queue depth; anything beyond this is a corrupted or hostile
// advertisement, not a big queue.
const headroomCeiling = 1 << 20

// parseHeadroom validates the fast credit feed's header value: a
// non-negative integer no larger than headroomCeiling. Anything else —
// unparseable, negative, absurd — is rejected (counted per backend as
// caprouter_backend_bad_headers_total) so the gauge only ever learns
// plausible capacity.
func parseHeadroom(s string) (int, bool) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || v > headroomCeiling {
		return 0, false
	}
	return v, true
}

// learnHeader folds one X-Capserve-Queue-Free value into the gauge. The
// header crosses a process boundary, so it is clamped like any other
// untrusted input: learn caps at MaxCredits, but pinning a backend *at*
// the cap is still inflation, so a value parseHeadroom rejects is only
// counted in badHeaders and changes nothing else.
func (b *Backend) learnHeader(v string) {
	free, ok := parseHeadroom(v)
	if !ok {
		b.badHeaders.Add(1)
		return
	}
	b.learn(free)
	b.markFresh()
}

// prefixedBody replays an already-buffered head before the unread tail
// of the response body — the hand-off from buffered to streaming relay
// when a body outgrows MaxBody mid-read.
type prefixedBody struct {
	head []byte
	tail io.ReadCloser
}

func (p *prefixedBody) Read(b []byte) (int, error) {
	if len(p.head) > 0 {
		n := copy(b, p.head)
		p.head = p.head[n:]
		return n, nil
	}
	return p.tail.Read(b)
}

func (p *prefixedBody) Close() error { return p.tail.Close() }
