package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own wrappers around each layer's
// public entry points, in the traced window only. The edges, outermost
// first:
//
//	late                      open loop: scheduled send → actual send
//	client | op               loadgen: one request / one in-process op
//	  router                  capcluster.Router.ServeHTTP
//	    dispatch              Config.Transport RoundTrip to a backend
//	      capserve            capserve.Server.ServeHTTP (StartBackendOn's wrap)
//	        workload          the run's own ElapsedNS (a duration, not an interval)
//	          join_wait       Domain.Join, summed per op (native tiers)
//	          lock_wait       Domain.Lock, summed per op and over workers
//	  run_request | sim       workloads.RunRequest / one simulated machine run
type spanKind uint8

const (
	kLate spanKind = iota
	kClient
	kOp
	kRouter
	kDispatch
	kCapserve
	kRunRequest
	kSim
	kWorkload
	kJoinWait
	kLockWait
	numKinds
)

var kindNames = [numKinds]string{
	"late", "client", "op", "router", "dispatch", "capserve",
	"run_request", "sim", "workload", "join_wait", "lock_wait",
}

// kindLevel orders kinds by nesting depth; a span's parent is the
// nearest span of a shallower level in the same request.
var kindLevel = [numKinds]int{
	kLate: 0, kClient: 0, kOp: 0,
	kRouter: 1, kDispatch: 2, kCapserve: 3,
	kRunRequest: 1, kSim: 1,
	kWorkload: 4, kJoinWait: 5, kLockWait: 5,
}

type span struct {
	kind       spanKind
	req        uint32
	parent     int32 // index into recorder.spans, -1 for a root
	start, end int64 // ns since recorder.base
	// floating marks a span known only as a duration (ElapsedNS, summed
	// waits): resolve centres it inside its parent.
	floating bool
}

// maxSpans bounds the traced window's memory: when the slice is full,
// later spans are dropped (a root span is recorded after its children,
// so every recorded root is complete). A million is twice what the
// busiest workload records in its traced half-window on the reference
// box. Of those, the first maxSpansWritten go to
// the spans file — enough requests to read a waterfall from, without
// writing a hundred megabytes per run.
const (
	maxSpans        = 1 << 20
	maxSpansWritten = 1 << 18
)

type recorder struct {
	base  time.Time
	spans []span
	n     atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, maxSpans)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(k spanKind, req uint32, start, end int64) {
	r.put(span{kind: k, req: req, parent: -1, start: start, end: end})
}

// addDuration records a span whose position inside its parent is unknown.
func (r *recorder) addDuration(k spanKind, req uint32, d int64) {
	r.put(span{kind: k, req: req, parent: -1, end: d, floating: true})
}

func (r *recorder) put(s span) {
	i := r.n.Add(1) - 1
	if i < int64(len(r.spans)) {
		r.spans[i] = s
	}
}

// recorded returns the spans written so far. Call after the window has
// closed and every writer has returned.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// resolve links every span to its parent: among the spans of the same
// request with a shallower level, the deepest level present, and within
// it the last one that started at or before the child (a retry's
// capserve span belongs to the second dispatch, not the first).
// Floating spans are then centred inside their parent.
func resolve(spans []span) {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.req != y.req {
			return x.req < y.req
		}
		if lx, ly := kindLevel[x.kind], kindLevel[y.kind]; lx != ly {
			return lx < ly
		}
		return x.start < y.start
	})
	for lo := 0; lo < len(order); {
		hi := lo
		for hi < len(order) && spans[order[hi]].req == spans[order[lo]].req {
			hi++
		}
		group := order[lo:hi]
		for gi, ci := range group {
			c := &spans[ci]
			// Shallower spans sort before c, deepest level and latest
			// start last: walking back meets the candidates best first.
			best, level := int32(-1), -1
			for gj := gi - 1; gj >= 0; gj-- {
				p := &spans[group[gj]]
				pl := kindLevel[p.kind]
				if p.kind == kLate || pl >= kindLevel[c.kind] {
					continue
				}
				if level >= 0 && pl != level {
					break
				}
				best, level = group[gj], pl
				if c.floating || p.start <= c.start {
					break
				}
			}
			c.parent = best
			if c.floating && best >= 0 {
				p := &spans[best]
				d := c.end
				if pd := p.end - p.start; d > pd {
					d = pd
				}
				c.start = p.start + (p.end-p.start-d)/2
				c.end = c.start + d
				c.floating = false
			}
		}
		lo = hi
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover. Children are clamped to the parent's
// interval; overlapping children (lock waits of parallel workers) cannot
// push a self time below zero.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
	}
	for i := range spans {
		c := &spans[i]
		if c.parent < 0 {
			continue
		}
		p := &spans[c.parent]
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			self[c.parent] -= hi - lo
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// closure is Σ self times ÷ Σ root durations over the requests whose
// root span was recorded. A span tree that nests properly closes at 1; a
// lost edge, an orphan or a child outliving its parent moves it away.
func closure(spans []span, self []int64) float64 {
	rooted := map[uint32]bool{}
	var rootSum int64
	for i := range spans {
		if spans[i].parent < 0 && kindLevel[spans[i].kind] == 0 {
			rooted[spans[i].req] = true
			rootSum += spans[i].end - spans[i].start
		}
	}
	var selfSum int64
	for i := range spans {
		s := &spans[i]
		if !rooted[s.req] {
			continue
		}
		if s.parent < 0 && kindLevel[s.kind] != 0 {
			// Orphan: its time is in nobody's budget. Count it whole so
			// the ratio shows the hole.
			selfSum += s.end - s.start
			continue
		}
		selfSum += self[i]
	}
	if rootSum == 0 {
		return 0
	}
	return float64(selfSum) / float64(rootSum)
}

// byKind collects one value per span of kind k.
func byKind(spans []span, vals []int64, k spanKind) []int64 {
	var out []int64
	for i := range spans {
		if spans[i].kind == k {
			out = append(out, vals[i])
		}
	}
	return out
}

func durations(spans []span) []int64 {
	d := make([]int64, len(spans))
	for i := range spans {
		d[i] = spans[i].end - spans[i].start
	}
	return d
}

func sum(xs []int64) (t int64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// writeSpans writes the first maxSpansWritten resolved spans as a JSON
// array of {name, start_ns, end_ns, parent, request_id}. A parent index
// past the cut reads -1, like a root's.
func writeSpans(path string, spans []span) error {
	spans = spans[:min(len(spans), maxSpansWritten)]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[")
	for i := range spans {
		s := &spans[i]
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		parent := s.parent
		if int(parent) >= len(spans) {
			parent = -1
		}
		fmt.Fprintf(w, `%s{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"request_id":%d}`,
			sep, kindNames[s.kind], s.start, s.end, parent, s.req)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ridParam carries the request id from the client through the router to
// the backend. It rides in the query string, not a header: the router
// forwards the raw query verbatim but builds its own header set.
const ridParam = "rid="

func ridOf(rawQuery string) (uint32, bool) {
	i := strings.LastIndex(rawQuery, ridParam)
	if i < 0 {
		return 0, false
	}
	var v uint32
	digits := rawQuery[i+len(ridParam):]
	for j := 0; j < len(digits) && digits[j] >= '0' && digits[j] <= '9'; j++ {
		v = v*10 + uint32(digits[j]-'0')
	}
	return v, true
}

func isRun(path string) bool { return strings.HasPrefix(path, "/run/") }

// handler wraps a tier's ServeHTTP in a span. The ResponseWriter passes
// through untouched, so streaming endpoints keep their http.Flusher.
func (r *recorder) handler(k spanKind, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rid, ok := ridOf(req.URL.RawQuery)
		if !ok || !isRun(req.URL.Path) {
			next.ServeHTTP(w, req)
			return
		}
		start := r.now()
		next.ServeHTTP(w, req)
		r.add(k, rid, start, r.now())
	})
}

// transport wraps the router's dispatch RoundTripper in a span.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rid, ok := ridOf(req.URL.RawQuery)
	if !ok || !isRun(req.URL.Path) {
		return t.next.RoundTrip(req)
	}
	start := t.rec.now()
	resp, err := t.next.RoundTrip(req)
	t.rec.add(kDispatch, rid, start, t.rec.now())
	return resp, err
}
