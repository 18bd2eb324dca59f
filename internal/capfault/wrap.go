package capfault

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"time"

	"repro/internal/capserve"
)

// Transport wraps next so requests consult the injector's rules before
// (and around) the real round trip. The backend scope a rule matches is
// the request URL's Host (host:port) — the same identity capcluster
// names its backends by — and the traffic scope is the request's path: a
// credit-feed subscription (capserve.CreditsPath) consults only
// ScopeFeed rules, everything else only ScopeRequest rules, so the push
// plane can be blackholed, partitioned or reset without a single
// dispatch noticing. On a feed stream, terminal rules armed *after* it
// is established still land — the response body re-checks the live rule
// set on every read (see feedBody) — because a subscription dials once
// and then lives for minutes: connect-time-only faults would miss
// exactly the streams a chaos script wants to cut. Disarmed cost of a
// dispatch: one atomic pointer load.
func (inj *Injector) Transport(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{inj: inj, next: next}
}

type transport struct {
	inj  *Injector
	next http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != capserve.CreditsPath {
		return t.roundTrip(req, ScopeRequest)
	}
	resp, err := t.roundTrip(req, ScopeFeed)
	if err == nil {
		// Interpose on the stream even while disarmed: the wrap decision
		// happens at dial time, the chaos script arms rules mid-stream.
		resp.Body = &feedBody{
			ReadCloser: resp.Body,
			inj:        t.inj,
			ctx:        req.Context(),
			backend:    req.URL.Host,
		}
	}
	return resp, err
}

func (t *transport) roundTrip(req *http.Request, scope string) (*http.Response, error) {
	if t.inj.rules.Load() == nil {
		// Disarmed fast path: one pointer load, no closure, no allocs.
		return t.next.RoundTrip(req)
	}
	var trickle *armedRule
	var termErr error
	var synth *http.Response
	armed := t.inj.matching(scope, req.URL.Host, func(ar *armedRule, h uint64) bool {
		switch ar.Kind {
		case KindLatency:
			if err := sleepCtx(req.Context(), ar.jitterFrom(h)); err != nil {
				termErr = &faultErr{kind: ar.Kind, err: err}
				return false
			}
			return true
		case KindBlackhole, KindPartition:
			// Packets vanish: never dial, stall until the caller's
			// context gives up. This is the failure the per-attempt
			// deadline exists for.
			<-req.Context().Done()
			termErr = &faultErr{kind: ar.Kind, err: req.Context().Err()}
			return false
		case KindReset:
			termErr = &faultErr{kind: ar.Kind, err: syscall.ECONNRESET}
			return false
		case KindDown:
			termErr = &faultErr{kind: ar.Kind, err: syscall.ECONNREFUSED}
			return false
		case KindError:
			synth = &http.Response{
				Status:     fmt.Sprintf("%d %s", ar.Status, http.StatusText(ar.Status)),
				StatusCode: ar.Status,
				Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
				Header:  http.Header{"X-Capfault": []string{string(ar.Kind)}},
				Body:    io.NopCloser(strings.NewReader("capfault: injected error\n")),
				Request: req,
			}
			return false
		case KindTrickle:
			trickle = ar
			return true
		}
		return true
	})
	if !armed {
		return t.next.RoundTrip(req)
	}
	if termErr != nil {
		return nil, termErr
	}
	if synth != nil {
		return synth, nil
	}
	resp, err := t.next.RoundTrip(req)
	if err == nil && trickle != nil {
		resp.Body = &slowReader{
			ReadCloser: resp.Body,
			ctx:        req.Context(),
			chunk:      trickle.Chunk,
			delay:      trickle.ChunkDelay,
		}
	}
	return resp, err
}

// Handler wraps next so requests consult the injector's rules inside
// the serving process — the capserve.Backend side of the wire. name is
// the backend identity rules are scoped by (caprouter uses the
// listener's host:port so one rule spec addresses a backend from either
// side). Disarmed cost: one atomic pointer load.
func (inj *Injector) Handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inj.rules.Load() == nil {
			next.ServeHTTP(w, r)
			return
		}
		var trickle *armedRule
		done := false
		armed := inj.matching(ScopeRequest, name, func(ar *armedRule, h uint64) bool {
			switch ar.Kind {
			case KindLatency:
				if err := sleepCtx(r.Context(), ar.jitterFrom(h)); err != nil {
					done = true
					return false
				}
				return true
			case KindBlackhole, KindPartition:
				// Park until the client gives up; write nothing.
				<-r.Context().Done()
				done = true
				return false
			case KindReset, KindDown:
				// Abort the handler so net/http tears the connection
				// down without a response — the in-process equivalent
				// of a reset / vanished listener.
				panic(http.ErrAbortHandler)
			case KindError:
				http.Error(w, "capfault: injected error", ar.Status)
				done = true
				return false
			case KindTrickle:
				trickle = ar
				return true
			}
			return true
		})
		if done {
			return
		}
		if armed && trickle != nil {
			w = &trickleWriter{ResponseWriter: w, r: r, chunk: trickle.Chunk, delay: trickle.ChunkDelay}
		}
		next.ServeHTTP(w, r)
	})
}

// feedBody interposes the live rule set between a credit-feed stream
// and its reader: every Read first consults the armed ScopeFeed rules,
// so a blackhole/partition/reset installed mid-stream cuts the
// established subscription at its next event instead of waiting for the
// next dial. These are existence checks, not probability rolls — a
// per-read roll would burn one decision index per heartbeat and make
// "cut this stream" a coin flip per event, when a mid-stream cut is
// scripted, deterministic chaos. Connect-time faults (including
// probabilistic ones) already ran in roundTrip.
type feedBody struct {
	io.ReadCloser
	inj     *Injector
	ctx     context.Context
	backend string
}

func (f *feedBody) Read(p []byte) (int, error) {
	if rules := f.inj.rules.Load(); rules != nil {
		now := f.inj.now()
		for _, ar := range *rules {
			if ar.Scope != ScopeFeed || !ar.active(now) {
				continue
			}
			if ar.Backend != MatchAll && ar.Backend != f.backend {
				continue
			}
			switch ar.Kind {
			case KindBlackhole, KindPartition:
				// The stream goes silent: park until the subscriber's
				// watchdog cancels the request context.
				<-f.ctx.Done()
				return 0, &faultErr{kind: ar.Kind, err: f.ctx.Err()}
			case KindReset:
				return 0, &faultErr{kind: ar.Kind, err: syscall.ECONNRESET}
			}
		}
	}
	return f.ReadCloser.Read(p)
}

// trickleWriter dribbles the response body chunk bytes per delay,
// flushing each chunk so the bytes actually hit the wire — the
// handler-side view of a trickling backend: headers and status land
// promptly, the body takes forever.
type trickleWriter struct {
	http.ResponseWriter
	r     *http.Request
	chunk int
	delay time.Duration
}

func (t *trickleWriter) Write(p []byte) (int, error) {
	f, _ := t.ResponseWriter.(http.Flusher)
	n := 0
	for len(p) > 0 {
		if err := sleepCtx(t.r.Context(), t.delay); err != nil {
			return n, err
		}
		c := t.chunk
		if c > len(p) {
			c = len(p)
		}
		w, err := t.ResponseWriter.Write(p[:c])
		n += w
		if err != nil {
			return n, err
		}
		if f != nil {
			f.Flush()
		}
		p = p[c:]
	}
	return n, nil
}
