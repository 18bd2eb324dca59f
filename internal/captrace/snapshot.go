package captrace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// This file is the tracer's read side plus the identity plumbing: the
// Snapshot walk (validated slot copies, merged and time-ordered), the
// Event JSON codec, the /debug/trace handler every server mounts,
// trace-ID generation/formatting, the per-request context carrier the
// router uses to hand identity to its in-process local tier, and the
// 1-in-N sampler for server-generated IDs.

// Event is one decoded ring entry. A and B are per-Kind payloads (see
// the Kind constants); Shard is a spare payload byte no tier writes
// today, kept so the 32-byte slot and the wire shape stay as they were.
// Source names the snapshot the event came from once snapshots are
// merged ("" inside one process).
type Event struct {
	TS     int64
	TID    uint64
	Kind   Kind
	Shard  uint8
	A      uint16
	B      uint32
	Source string
}

// eventJSON is the wire shape: the trace ID as 16 hex digits (matching
// the header), the kind by name (stable across builds).
type eventJSON struct {
	TS     int64  `json:"ts"`
	ID     string `json:"id,omitempty"`
	Kind   string `json:"kind"`
	Shard  uint8  `json:"shard"`
	A      uint16 `json:"a"`
	B      uint32 `json:"b"`
	Source string `json:"source,omitempty"`
}

// MarshalJSON encodes the event in the wire shape.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{TS: e.TS, Kind: e.Kind.String(), Shard: e.Shard, A: e.A, B: e.B, Source: e.Source}
	if e.TID != 0 {
		j.ID = FormatID(e.TID)
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the wire shape. Unknown kind names decode to
// KNone rather than failing, so an older CLI can still render the rest
// of a newer snapshot.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Event{TS: j.TS, Shard: j.Shard, A: j.A, B: j.B, Source: j.Source}
	e.Kind, _ = KindFromString(j.Kind)
	if j.ID != "" {
		id, err := ParseID(j.ID)
		if err != nil {
			return err
		}
		e.TID = id
	}
	return nil
}

// Detail renders the per-kind payload for humans ("ctx=7",
// "deny=throttle", "backend=1 credits=16"), the last column of
// WriteWaterfall.
func (e Event) Detail() string {
	switch e.Kind {
	case KProbeGranted:
		return fmt.Sprintf("ctx=%d", e.B)
	case KProbeDenied:
		reason := "no_ctx"
		switch e.A {
		case DenyThrottle:
			reason = "throttle"
		case DenyClosed:
			reason = "closed"
		}
		return "deny=" + reason
	case KHandoff:
		how := "spin-hit"
		if e.A == HandoffPark {
			how = "park-wakeup"
		}
		return fmt.Sprintf("%s ctx=%d", how, e.B)
	case KDeath:
		return fmt.Sprintf("ctx=%d", e.B)
	case KThrottleOpen, KThrottleClose:
		return ""
	case KReqAdmit:
		return fmt.Sprintf("queue-occupancy=%d", e.B)
	case KReqShed:
		return "queue full"
	case KReqDegraded:
		return "no headroom, sequential domain"
	case KReqDone:
		return fmt.Sprintf("status=%d dur=%s", e.A, time.Duration(e.B)*time.Microsecond)
	case KRouteRecv:
		return ""
	case KRouteDispatch:
		return fmt.Sprintf("backend=%d credits=%d", e.A, e.B)
	case KRouteShed:
		return fmt.Sprintf("backend=%d refused (503)", e.A)
	case KRouteDeath:
		return fmt.Sprintf("backend=%d failed", e.A)
	case KRouteServed:
		return fmt.Sprintf("backend=%d dur=%s", e.A, time.Duration(e.B)*time.Microsecond)
	case KRouteFallback:
		tier := "local-runtime"
		if e.A == TierSequential {
			tier = "sequential"
		}
		return fmt.Sprintf("tier=%s dur=%s", tier, time.Duration(e.B)*time.Microsecond)
	}
	return ""
}

// ShardInfo is one shard's occupancy accounting inside a Snapshot.
type ShardInfo struct {
	Written   uint64 `json:"written"`   // events ever claimed on this shard
	Capacity  int    `json:"capacity"`  // ring size
	Dropped   uint64 `json:"dropped"`   // overwritten before this snapshot: max(written-capacity, 0)
	Contended uint64 `json:"contended"` // dropped by their own writer: the slot was held or newer
	Skipped   uint64 `json:"skipped"`   // slots held or replaced by a writer during this walk
}

// Snapshot is one point-in-time read of a tracer, the JSON body served
// by /debug/trace and ingested by capscope trace. Events are ascending by
// timestamp.
type Snapshot struct {
	Source  string      `json:"source"`
	TakenAt int64       `json:"taken_at"`
	Shards  []ShardInfo `json:"shards"`
	Events  []Event     `json:"events"`
}

// Snapshot copies out the most recent events without stopping writers:
// each shard's ring is walked backwards from its write head, and every
// slot is accepted only if its sequence header matches the expected
// claim both before and after the payload copy — a slot held or
// overwritten mid-walk is counted in Skipped, not returned; a slot still
// holding an older claim (the expected claim's writer dropped its event,
// or has not published it yet) is neither. n > 0 caps the merged
// result to the n most recent events; n <= 0 returns everything
// resident. Safe on a nil Tracer (returns an empty snapshot).
func (t *Tracer) Snapshot(source string, n int) Snapshot {
	snap := Snapshot{Source: source, TakenAt: time.Now().UnixNano()}
	if t == nil {
		return snap
	}
	snap.Shards = make([]ShardInfo, len(t.shards))
	size := uint64(t.mask + 1)
	for si := range t.shards {
		s := &t.shards[si]
		head := s.seq.Load()
		info := &snap.Shards[si]
		info.Written = head
		info.Capacity = int(size)
		info.Contended = s.contended.Load()
		if head > size {
			info.Dropped = head - size
		}
		resident := head
		if resident > size {
			resident = size
		}
		for k := uint64(0); k < resident; k++ {
			i := head - 1 - k // claim index, newest first
			sl := &s.ring[i&t.mask]
			if h := sl.hdr.Load(); h != i+1 {
				if h&writing != 0 || h > i+1 {
					info.Skipped++
				}
				continue
			}
			ev := Event{
				TS:     sl.ts.Load(),
				TID:    sl.tid.Load(),
				Source: source,
			}
			packed := sl.packed.Load()
			if sl.hdr.Load() != i+1 { // overwritten mid-copy: discard
				info.Skipped++
				continue
			}
			ev.Kind = Kind(packed >> 56)
			ev.Shard = uint8(packed >> 48)
			ev.A = uint16(packed >> 32)
			ev.B = uint32(packed)
			snap.Events = append(snap.Events, ev)
		}
	}
	sortEvents(snap.Events)
	if n > 0 && len(snap.Events) > n {
		snap.Events = append([]Event(nil), snap.Events[len(snap.Events)-n:]...)
	}
	return snap
}

// Source is one member's tracer under the name its snapshots carry.
type Source struct {
	Name   string
	Tracer *Tracer
}

// Handler serves GET /debug/trace?n= over srcs: always a JSON array of
// snapshots in the given order, the lead member first (one element for
// a lone server). n > 0 caps each snapshot to its n most recent events.
// Read-side aggregation only: safe to hit while the hot path writes.
func Handler(srcs ...Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil || p < 0 {
				http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
				return
			}
			n = p
		}
		snaps := make([]Snapshot, len(srcs))
		for i, s := range srcs {
			snaps[i] = s.Tracer.Snapshot(s.Name, n)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snaps)
	})
}

// MergeEvents flattens several snapshots (e.g. router + each backend)
// into one ascending timeline. Wall-clock timestamps make same-host
// cross-process ordering meaningful, which is all the smoke tests and
// the CLI need.
func MergeEvents(snaps ...Snapshot) []Event {
	var all []Event
	for _, s := range snaps {
		all = append(all, s.Events...)
	}
	sortEvents(all)
	return all
}

// ByTrace groups the snapshots' traced events by trace ID, each group
// in MergeEvents order: one request's cross-tier timeline per key.
func ByTrace(snaps ...Snapshot) map[uint64][]Event {
	byTID := map[uint64][]Event{}
	for _, ev := range MergeEvents(snaps...) {
		if ev.TID != 0 {
			byTID[ev.TID] = append(byTID[ev.TID], ev)
		}
	}
	return byTID
}

// WriteWaterfall prints one trace's events, one line each: offset from
// the first event, source, kind and Detail.
func WriteWaterfall(w io.Writer, evs []Event) {
	for _, ev := range evs {
		src := ev.Source
		if src == "" {
			src = "-"
		}
		fmt.Fprintf(w, "  +%9.1fµs %-16s %-14s %s\n", float64(ev.TS-evs[0].TS)/1e3, src, ev.Kind, ev.Detail())
	}
}

// sortEvents orders by timestamp, then stably by (source, kind) so
// equal-timestamp events from one process keep a deterministic order.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		if evs[i].Source != evs[j].Source {
			return evs[i].Source < evs[j].Source
		}
		return evs[i].Kind < evs[j].Kind
	})
}

// Trace-ID generation: ids are random-looking, never zero, and unique
// per process with overwhelming probability — a per-process random seed
// walked by a counter through the splitmix64 finaliser. No coordination
// between processes is needed; capload stamps most ids in practice.
var (
	idSeed    = newSeed()
	idCounter atomic.Uint64
)

func newSeed() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint64(b[:])
	}
	return uint64(time.Now().UnixNano())
}

// NewID returns a fresh non-zero trace ID.
func NewID() uint64 {
	for {
		if id := mix(idSeed + idCounter.Add(1)*0x9e3779b97f4a7c15); id != 0 {
			return id
		}
	}
}

// FormatID renders a trace ID as the 16-hex-digit header value.
func FormatID(id uint64) string {
	return fmt.Sprintf("%016x", id)
}

// ParseID parses a header value produced by FormatID (any nonzero hex
// uint64 is accepted; garbage and zero are rejected so a malformed
// client header degrades to "untraced", never to a shared bucket).
func ParseID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("captrace: bad trace id %q: %v", s, err)
	}
	if id == 0 {
		return 0, fmt.Errorf("captrace: zero trace id")
	}
	return id, nil
}

// Sampler makes the 1-in-N decision for tracing server-generated
// request IDs (adopted IDs bypass it — whoever stamped the header
// already decided). A nil Sampler never samples; n <= 1 always samples.
// The counter is shared across goroutines: "every Nth admission", not
// per-conn, so a steady load always yields exemplars.
type Sampler struct {
	n uint64
	c atomic.Uint64
}

// NewSampler returns a 1-in-n sampler (n <= 1: always; see Sampler).
func NewSampler(n int) *Sampler {
	if n < 1 {
		n = 1
	}
	return &Sampler{n: uint64(n)}
}

// Sample reports whether this request should be traced.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.c.Add(1)%s.n == 0
}

// Context plumbing: the router serves its local-fallback tier by
// calling the in-process capserve handler directly, so the trace
// identity travels in the request context instead of being re-derived
// from headers (which would double-sample and could disagree).

type ctxKey struct{}

type ctxIdentity struct {
	id     uint64
	traced bool
}

// WithRequest returns a context carrying an already-decided trace
// identity. traced=false with a nonzero id means "identified but not
// sampled": the id still echoes on responses, but no events are
// recorded for it.
func WithRequest(ctx context.Context, id uint64, traced bool) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxIdentity{id: id, traced: traced})
}

// RequestFrom extracts an identity placed by WithRequest; ok is false
// when the context carries none and the callee should derive its own.
func RequestFrom(ctx context.Context) (id uint64, traced, ok bool) {
	v, ok := ctx.Value(ctxKey{}).(ctxIdentity)
	return v.id, v.traced, ok
}
