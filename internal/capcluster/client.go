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

// defaultTransport is the router's transport when Config.Transport is
// nil: http.DefaultTransport's dialer and timeouts, with an idle pool
// sized to the fleet's real concurrency bound. Every concurrently
// admitted request holds one connection to its backend, and admissions
// per backend are capped by the credit gauge — whose ceiling is at most
// creditCap — so an idle pool at least that wide means a release never
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

// DefaultTransport returns the transport New builds when
// Config.Transport is nil, sized for maxCredits concurrent dispatches
// per backend (0 = the default ceiling). Callers that need to interpose
// on the wire — cmd/caprouter wrapping it in a capfault injector —
// start from this so wrapping does not change pooling behavior.
func DefaultTransport(maxCredits int) http.RoundTripper {
	if maxCredits == 0 {
		maxCredits = creditCap
	}
	return defaultTransport(maxCredits)
}

// maxBody caps a relayed response: the relay buffers the whole body
// before the client sees a byte, and a body past the cap is charged to
// the backend as a death.
const maxBody = 1 << 20

// outcome classifies one remote dispatch attempt.
type outcome int

const (
	// dispatched: a 2xx response was written to the client. The
	// request is done.
	dispatched outcome = iota
	// clientFault: a 4xx response was proxied to the client — the
	// request was wrong, not the backend. The request is done.
	clientFault
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
// The attempt runs under min(attemptTimeout, time left until deadline),
// both on the router's clock — the hardening capfault's black-hole
// forced: a backend that accepts and stalls costs the request one
// attempt slice, not the whole budget, and the walk moves on. The response is buffered whole
// (up to maxBody) before anything is written to the client, so a backend
// dying mid-body — or sending more than maxBody — is a retryable death
// (the next backend gets the request) instead of a truncated 200.
func (r *Router) dispatch(w http.ResponseWriter, req *http.Request, b *Backend, deadline int64, tid uint64, traced bool) outcome {
	defer b.release()
	b.dispatches.Add(1)

	attempt := attemptTimeout
	if rem := time.Duration(deadline - r.clock.now()); rem < attempt {
		attempt = rem
	}
	if attempt <= 0 {
		// Budget exhausted before this attempt started: charge the walk,
		// not the backend.
		return died
	}
	ctx, cancel := context.WithTimeout(req.Context(), r.clock.real(attempt))
	defer cancel()

	target := b.url + req.URL.Path
	if req.URL.RawQuery != "" {
		target += "?" + req.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		b.fail()
		return died
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

	// 2xx and 4xx proxy through, buffered first — the client has seen
	// nothing yet, so a mid-body death stays retryable — and the attempt
	// deadline covers the read, so a trickling body slower than the slice
	// is a death too, not a stall.
	var buf bytes.Buffer
	if n, err := io.Copy(&buf, io.LimitReader(resp.Body, maxBody+1)); err != nil || n > maxBody {
		if err != nil && req.Context().Err() != nil {
			// Our client hung up while we buffered; the backend is
			// blameless and nobody is waiting.
			return clientGone
		}
		b.fail()
		return died
	}
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
	if resp.StatusCode >= 400 {
		return clientFault
	}
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
// untrusted input: learn caps at creditCap, but pinning a backend *at*
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
