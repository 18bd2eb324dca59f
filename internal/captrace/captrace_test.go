package captrace

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stormPayload derives every event field from one generator value, so a
// snapshot can recompute what each field must be from the timestamp
// alone — any event whose fields disagree was torn.
func stormPayload(v uint64) (ts int64, tid uint64, kind Kind, shard uint8, a uint16, b uint32) {
	h := mix(v)
	ts = int64(v)
	tid = h | 1 // nonzero
	kind = Kind(1 + v%uint64(kindCount-1))
	shard = uint8(h >> 8)
	a = uint16(h >> 16)
	b = uint32(h >> 32)
	return
}

func checkStormEvent(t *testing.T, ev Event) {
	t.Helper()
	_, tid, kind, shard, a, b := stormPayload(uint64(ev.TS))
	if ev.TID != tid || ev.Kind != kind || ev.Shard != shard || ev.A != a || ev.B != b {
		t.Fatalf("torn event: got %+v, want tid=%x kind=%v shard=%d a=%d b=%d",
			ev, tid, kind, shard, a, b)
	}
}

// TestStormDropsNeverTears hammers a deliberately tiny tracer from many
// writers while concurrent readers snapshot it: every ring wraps many
// times over, so the test exercises exactly the overflow path the ISSUE
// names. The invariants: every event a snapshot returns is internally
// consistent (no torn slots, even when a writer is lapped mid-write),
// per-shard accounting adds up (claims == events written, events +
// overwrites + contended drops cover every claim), and nothing blocks —
// the writers finish a fixed amount of work regardless of reader
// pressure. Run under -race at GOMAXPROCS 1/2/4 in CI.
func TestStormDropsNeverTears(t *testing.T) {
	const (
		writers   = 8
		perWriter = 50_000
		readers   = 4
	)
	tr := New(4, 64) // 4 shards × 64 slots: overflow is immediate and constant

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tr.Snapshot("storm", 0)
				for _, ev := range snap.Events {
					checkStormEvent(t, ev)
				}
				if len(snap.Events) > tr.Shards()*tr.PerShard() {
					t.Errorf("snapshot larger than total capacity: %d", len(snap.Events))
					return
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w)<<32 | uint64(i) | 1
				ts, tid, kind, shard, a, b := stormPayload(v)
				tr.record(ts, kind, tid, shard, a, b)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	// Quiescent accounting: every claim happened, the overflow and the
	// collisions were dropped (not blocked on), and a final snapshot
	// validates clean with zero skips — a lapped writer never
	// re-published a stale claim over the newer one.
	snap := tr.Snapshot("storm", 0)
	var written, dropped uint64
	for _, sh := range snap.Shards {
		written += sh.Written
		dropped += sh.Dropped + sh.Contended
		if sh.Skipped != 0 {
			t.Errorf("quiescent snapshot skipped %d slots", sh.Skipped)
		}
	}
	if want := uint64(writers * perWriter); written != want {
		t.Fatalf("claims = %d, want %d (a writer blocked or lost a claim)", written, want)
	}
	if dropped == 0 {
		t.Fatalf("no drops recorded despite %d events into %d slots", written, tr.Shards()*tr.PerShard())
	}
	if len(snap.Events)+int(dropped) < int(written) {
		t.Fatalf("events %d + dropped %d < written %d", len(snap.Events), dropped, written)
	}
	for _, ev := range snap.Events {
		checkStormEvent(t, ev)
	}
}

func TestSnapshotOrderingAndCap(t *testing.T) {
	tr := New(2, 16)
	for i := 1; i <= 10; i++ {
		tr.record(int64(i), KProbeGranted, uint64(i), 0, 0, uint32(i))
	}
	snap := tr.Snapshot("unit", 0)
	if len(snap.Events) != 10 {
		t.Fatalf("got %d events, want 10", len(snap.Events))
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].TS < snap.Events[i-1].TS {
			t.Fatalf("events out of order: %d after %d", snap.Events[i].TS, snap.Events[i-1].TS)
		}
	}
	capped := tr.Snapshot("unit", 3)
	if len(capped.Events) != 3 {
		t.Fatalf("n=3 returned %d events", len(capped.Events))
	}
	if capped.Events[len(capped.Events)-1].TS != 10 {
		t.Fatalf("cap did not keep the most recent events: last ts=%d", capped.Events[len(capped.Events)-1].TS)
	}
	for _, ev := range capped.Events {
		if ev.Source != "unit" {
			t.Fatalf("event source = %q, want unit", ev.Source)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(KProbeGranted, 1, 0, 0, 0) // must not panic
	snap := tr.Snapshot("nil", 10)
	if len(snap.Events) != 0 || len(snap.Shards) != 0 {
		t.Fatalf("nil tracer snapshot not empty: %+v", snap)
	}
	if tr.Shards() != 0 || tr.PerShard() != 0 {
		t.Fatalf("nil tracer geometry nonzero")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := []Event{
		{TS: 123, TID: 0xdeadbeef, Kind: KRouteDispatch, A: 2, B: 16, Source: "router"},
		{TS: 456, Kind: KThrottleOpen}, // tid 0: id omitted from wire form
		{TS: 789, TID: 7, Kind: KProbeGranted, Shard: 3, A: 1, B: 9},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost events: %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New(1, 8)
	tr.record(1, KReqAdmit, 42, 0, 0, 3)
	tr.record(2, KReqDone, 42, 0, 200, 1500)
	snap := tr.Snapshot("backend-0", 0)
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Source != "backend-0" || len(got.Events) != 2 || len(got.Shards) != 1 {
		t.Fatalf("snapshot round trip mangled: %+v", got)
	}
	if got.Events[1].Kind != KReqDone || got.Events[1].A != 200 {
		t.Fatalf("payload lost: %+v", got.Events[1])
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("kind %d does not round-trip through %q", k, name)
		}
	}
	if _, ok := KindFromString("nonsense"); ok {
		t.Fatal("bogus name parsed")
	}
}

func TestIDRoundTrip(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned zero")
		}
		if seen[id] {
			t.Fatalf("NewID repeated %x within 1000 draws", id)
		}
		seen[id] = true
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%x) = %q, want 16 hex digits", id, s)
		}
		back, err := ParseID(s)
		if err != nil || back != id {
			t.Fatalf("ParseID(FormatID(%x)) = %x, %v", id, back, err)
		}
	}
	for _, bad := range []string{"", "zz", "0", "0000000000000000", "12345678901234567890123"} {
		if _, err := ParseID(bad); err == nil {
			t.Fatalf("ParseID(%q) accepted", bad)
		}
	}
}

func TestSampler(t *testing.T) {
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler sampled")
	}
	always := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !always.Sample() {
			t.Fatal("1-in-1 sampler skipped")
		}
	}
	s := NewSampler(8)
	hits := 0
	for i := 0; i < 800; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-8 over 800 draws hit %d, want exactly 100", hits)
	}
}

func TestContextIdentity(t *testing.T) {
	ctx := context.Background()
	if _, _, ok := RequestFrom(ctx); ok {
		t.Fatal("bare context reported an identity")
	}
	ctx = WithRequest(ctx, 0xabc, true)
	id, traced, ok := RequestFrom(ctx)
	if !ok || id != 0xabc || !traced {
		t.Fatalf("got id=%x traced=%v ok=%v", id, traced, ok)
	}
	ctx = WithRequest(ctx, 0xdef, false)
	id, traced, _ = RequestFrom(ctx)
	if id != 0xdef || traced {
		t.Fatalf("overwrite failed: id=%x traced=%v", id, traced)
	}
}

func TestMergeEvents(t *testing.T) {
	a := Snapshot{Source: "router", Events: []Event{{TS: 2, Kind: KRouteDispatch, Source: "router"}, {TS: 5, Kind: KRouteServed, Source: "router"}}}
	b := Snapshot{Source: "backend", Events: []Event{{TS: 3, Kind: KReqAdmit, Source: "backend"}, {TS: 4, Kind: KReqDone, Source: "backend"}}}
	merged := MergeEvents(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	want := []Kind{KRouteDispatch, KReqAdmit, KReqDone, KRouteServed}
	for i, k := range want {
		if merged[i].Kind != k {
			t.Fatalf("merged[%d] = %v, want %v", i, merged[i].Kind, k)
		}
	}
}

// TestByTraceWaterfall: grouping keeps each trace's cross-snapshot
// events in merged order and drops untraced ones; the waterfall offsets
// every line from the trace's first event.
func TestByTraceWaterfall(t *testing.T) {
	a := Snapshot{Source: "router", Events: []Event{
		{TS: 1000, TID: 7, Kind: KRouteRecv, Source: "router"},
		{TS: 1500, Kind: KThrottleOpen, Source: "router"},
		{TS: 4000, TID: 7, Kind: KRouteServed, Source: "router"},
	}}
	b := Snapshot{Source: "backend", Events: []Event{
		{TS: 2000, TID: 7, Kind: KReqAdmit, Source: "backend"},
		{TS: 2500, TID: 9, Kind: KReqAdmit},
	}}
	by := ByTrace(a, b)
	if len(by) != 2 || len(by[7]) != 3 || len(by[9]) != 1 {
		t.Fatalf("ByTrace = %v, want trace 7 with 3 events and trace 9 with 1", by)
	}
	for i, k := range []Kind{KRouteRecv, KReqAdmit, KRouteServed} {
		if by[7][i].Kind != k {
			t.Fatalf("trace 7 event %d = %v, want %v", i, by[7][i].Kind, k)
		}
	}
	var out bytes.Buffer
	WriteWaterfall(&out, by[7])
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "+      0.0µs router") || !strings.Contains(lines[2], "+      3.0µs router") {
		t.Fatalf("waterfall:\n%s", out.String())
	}
	out.Reset()
	WriteWaterfall(&out, by[9])
	if !strings.Contains(out.String(), " - ") {
		t.Fatalf("sourceless event should print as \"-\":\n%s", out.String())
	}
}

func BenchmarkRecord(b *testing.B) {
	tr := New(0, 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(KProbeGranted, 0xabcdef, 3, 1, 42)
		}
	})
}

func BenchmarkRecordDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(KProbeGranted, 0xabcdef, 3, 1, 42)
		}
	})
}

// FuzzHandlerN: any ?n= gets a 400 or a JSON array with one snapshot per
// source, each capped at n events — never a panic.
func FuzzHandlerN(f *testing.F) {
	for _, n := range []string{"", "0", "2", "-1", "bogus", "99999999999999999999"} {
		f.Add(n)
	}
	tr := New(1, 16)
	for i := 1; i <= 5; i++ {
		tr.record(int64(i), KReqAdmit, uint64(i), 0, 0, 0)
	}
	h := Handler(Source{Name: "lead", Tracer: tr}, Source{Name: "off"})
	f.Fuzz(func(t *testing.T, n string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace?"+url.Values{"n": {n}}.Encode(), nil))
		if w.Code == http.StatusBadRequest {
			return
		}
		var snaps []Snapshot
		if err := json.Unmarshal(w.Body.Bytes(), &snaps); w.Code != http.StatusOK || err != nil {
			t.Fatalf("?n=%q: status %d, body %q (%v)", n, w.Code, w.Body.Bytes(), err)
		}
		if len(snaps) != 2 || snaps[0].Source != "lead" || snaps[1].Source != "off" {
			t.Fatalf("?n=%q: want [lead off], got %+v", n, snaps)
		}
		if p, _ := strconv.Atoi(n); p > 0 && len(snaps[0].Events) > p {
			t.Fatalf("?n=%q returned %d events", n, len(snaps[0].Events))
		}
	})
}
