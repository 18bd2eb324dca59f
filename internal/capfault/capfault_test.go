package capfault

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/capserve"
)

func mustSet(t *testing.T, inj *Injector, r Rule) uint64 {
	t.Helper()
	id, err := inj.Set(r)
	if err != nil {
		t.Fatalf("Set(%+v): %v", r, err)
	}
	return id
}

// okHandler is the unfaulted backend every wrap test delegates to.
var okHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "hello from backend")
})

func TestDeterministicDecisions(t *testing.T) {
	run := func(seed uint64) []bool {
		inj := New(seed)
		id := mustSet(t, inj, Rule{Kind: KindError, P: 0.5})
		rules := *inj.rules.Load()
		var ar *armedRule
		for _, r := range rules {
			if r.id == id {
				ar = r
			}
		}
		out := make([]bool, 64)
		for i := range out {
			_, out[i] = ar.fires(seed)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 produced identical 64-decision streams")
	}
	fired := 0
	for _, ok := range a {
		if ok {
			fired++
		}
	}
	if fired < 16 || fired > 48 {
		t.Fatalf("P=0.5 fired %d/64 — hash badly skewed", fired)
	}
}

// TestClockCountsFromNew: rule expiry reads monotonic time since New,
// not Unix time, so a wall-clock step neither stretches nor cuts a
// rule's For.
func TestClockCountsFromNew(t *testing.T) {
	before := time.Now()
	inj := New(1)
	if now, elapsed := inj.now(), time.Since(before); now < 0 || now > int64(elapsed) {
		t.Fatalf("clock reads %d ns %v after New began; want a reading in [0, %d]", now, elapsed, int64(elapsed))
	}
}

func TestDisarmedPassesThrough(t *testing.T) {
	inj := New(1)
	srv := httptest.NewServer(inj.Handler("b0", okHandler))
	defer srv.Close()
	client := &http.Client{Transport: inj.Transport(http.DefaultTransport)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("disarmed get: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "hello from backend" {
		t.Fatalf("disarmed get = %d %q", resp.StatusCode, body)
	}
	if inj.Armed() {
		t.Fatalf("Armed() true with no rules")
	}
}

func TestDisarmedTransportAllocFree(t *testing.T) {
	inj := New(1)
	// Both sides go through an http.RoundTripper interface so escape
	// analysis treats them identically; the delta is the wrap's cost.
	var next http.RoundTripper = rtFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: http.NoBody, Request: req}, nil
	})
	rt := inj.Transport(next)
	req := httptest.NewRequest("GET", "http://b0:1/x", nil)
	base := testing.AllocsPerRun(1000, func() {
		resp, _ := next.RoundTrip(req)
		resp.Body.Close()
	})
	wrapped := testing.AllocsPerRun(1000, func() {
		resp, _ := rt.RoundTrip(req)
		resp.Body.Close()
	})
	if wrapped > base {
		t.Fatalf("disarmed RoundTrip allocates %.1f/op vs %.1f unwrapped; want no extra", wrapped, base)
	}
}

// TestDisarmedHandlerAllocFree is the twin on the backend side of the
// wire: with no rules installed the wrapped handler allocates exactly
// what the handler it wraps does.
func TestDisarmedHandlerAllocFree(t *testing.T) {
	inj := New(1)
	// Both sides are called through the http.Handler interface, as in
	// the transport twin.
	var next http.Handler = okHandler
	h := inj.Handler("b0:1", next)
	req := httptest.NewRequest("GET", "/x", nil)
	serve := func(h http.Handler) float64 {
		return testing.AllocsPerRun(1000, func() { h.ServeHTTP(httptest.NewRecorder(), req) })
	}
	if base, wrapped := serve(next), serve(h); wrapped != base {
		t.Fatalf("disarmed handler allocates %.1f/op vs %.1f unwrapped; want the same", wrapped, base)
	}
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestBackendScoping(t *testing.T) {
	inj := New(7)
	mustSet(t, inj, Rule{Kind: KindError, Backend: "victim:80"})
	rt := inj.Transport(rtFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: http.NoBody, Request: req}, nil
	}))
	resp, err := rt.RoundTrip(httptest.NewRequest("GET", "http://victim:80/x", nil))
	if err != nil || resp.StatusCode != 500 {
		t.Fatalf("scoped rule on victim: resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	resp, err = rt.RoundTrip(httptest.NewRequest("GET", "http://healthy:80/x", nil))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("scoped rule leaked to healthy backend: resp=%v err=%v", resp, err)
	}
}

// TestScopeFromPath: one transport carries both traffic classes, told
// apart by path. A feed-scoped rule fails credit-feed subscriptions and
// no dispatch, a request-scoped rule the reverse, and a feed rule armed
// after a stream opened still cuts that stream at its next read.
func TestScopeFromPath(t *testing.T) {
	inj := New(5)
	rt := inj.Transport(rtFunc(func(req *http.Request) (*http.Response, error) {
		body := io.NopCloser(strings.NewReader("data: {}\n\n"))
		return &http.Response{StatusCode: 200, Body: body, Request: req}, nil
	}))
	const dispatch, feed = "http://b0:1/run/quicksort", "http://b0:1" + capserve.CreditsPath
	get := func(url string) error {
		resp, err := rt.RoundTrip(httptest.NewRequest("GET", url, nil))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body)
		return err
	}
	stream, err := rt.RoundTrip(httptest.NewRequest("GET", feed, nil))
	if err != nil {
		t.Fatalf("disarmed subscription: %v", err)
	}
	defer stream.Body.Close()

	id := mustSet(t, inj, Rule{Kind: KindReset, Scope: ScopeFeed})
	if err := get(feed); err == nil {
		t.Error("feed rule spared a subscription")
	}
	if err := get(dispatch); err != nil {
		t.Errorf("feed rule hit a dispatch: %v", err)
	}
	if _, err := stream.Body.Read(make([]byte, 8)); err == nil {
		t.Error("feed rule armed mid-stream spared the open stream")
	}
	inj.Clear(id)

	mustSet(t, inj, Rule{Kind: KindReset})
	if err := get(dispatch); err == nil {
		t.Error("request rule spared a dispatch")
	}
	if err := get(feed); err != nil {
		t.Errorf("request rule hit a subscription: %v", err)
	}
}

func TestLatencyTransport(t *testing.T) {
	inj := New(3)
	mustSet(t, inj, Rule{Kind: KindLatency, Delay: 40 * time.Millisecond, Jitter: 20 * time.Millisecond})
	rt := inj.Transport(rtFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: http.NoBody, Request: req}, nil
	}))
	start := time.Now()
	resp, err := rt.RoundTrip(httptest.NewRequest("GET", "http://b0:1/x", nil))
	if err != nil {
		t.Fatalf("latency roundtrip: %v", err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 40*time.Millisecond || d > 500*time.Millisecond {
		t.Fatalf("latency rule delayed %v; want [40ms, 60ms+slack]", d)
	}
}

func TestBlackholeHonorsContext(t *testing.T) {
	inj := New(3)
	mustSet(t, inj, Rule{Kind: KindBlackhole})
	dialed := false
	rt := inj.Transport(rtFunc(func(req *http.Request) (*http.Response, error) {
		dialed = true
		return nil, errors.New("should not dial")
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("GET", "http://b0:1/x", nil).WithContext(ctx)
	start := time.Now()
	_, err := rt.RoundTrip(req)
	if err == nil {
		t.Fatalf("blackhole returned a response")
	}
	if dialed {
		t.Fatalf("blackhole dialed the underlying transport")
	}
	var fe *faultErr
	if !errors.As(err, &fe) || !fe.Timeout() {
		t.Fatalf("blackhole error %v; want timeout-flagged faultErr", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("blackhole gave up after %v; should stall to the deadline", d)
	}
}

func TestResetAndDown(t *testing.T) {
	inj := New(3)
	id := mustSet(t, inj, Rule{Kind: KindReset})
	rt := inj.Transport(rtFunc(func(req *http.Request) (*http.Response, error) {
		t.Fatal("dialed through a reset rule")
		return nil, nil
	}))
	if _, err := rt.RoundTrip(httptest.NewRequest("GET", "http://b0:1/x", nil)); err == nil ||
		!strings.Contains(err.Error(), "reset") {
		t.Fatalf("reset rule: err=%v", err)
	}
	inj.Clear(id)
	mustSet(t, inj, Rule{Kind: KindDown})
	if _, err := rt.RoundTrip(httptest.NewRequest("GET", "http://b0:1/x", nil)); err == nil ||
		!strings.Contains(err.Error(), "down") {
		t.Fatalf("down rule: err=%v", err)
	}
}

func TestTrickleHandler(t *testing.T) {
	inj := New(3)
	mustSet(t, inj, Rule{Kind: KindTrickle, Chunk: 4, ChunkDelay: 5 * time.Millisecond})
	srv := httptest.NewServer(inj.Handler("b0", okHandler))
	defer srv.Close()
	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("trickle get: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "hello from backend" {
		t.Fatalf("trickle body = %q err=%v; body must arrive intact", body, err)
	}
	// 18 bytes at 4/chunk = 5 chunks × 5ms.
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("trickle served in %v; want >= 25ms of dribble", d)
	}
}

func TestErrorHandlerAndExpiry(t *testing.T) {
	inj := New(3)
	mustSet(t, inj, Rule{Kind: KindError, Status: 503, For: 80 * time.Millisecond})
	srv := httptest.NewServer(inj.Handler("b0", okHandler))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("error rule: resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	time.Sleep(120 * time.Millisecond)
	resp, err = http.Get(srv.URL)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("expired rule still firing: resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
}

func TestResetHandlerTearsConnection(t *testing.T) {
	inj := New(3)
	mustSet(t, inj, Rule{Kind: KindReset})
	srv := httptest.NewServer(inj.Handler("b0", okHandler))
	defer srv.Close()
	_, err := http.Get(srv.URL)
	if err == nil {
		t.Fatalf("reset handler returned a clean response")
	}
}

func TestDebugHandlerRoundTrip(t *testing.T) {
	inj := New(99)
	srv := httptest.NewServer(inj.DebugHandler())
	defer srv.Close()

	post := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s = %d %s", body, resp.StatusCode, b)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}

	post(`{"kind":"latency","backend":"b1:80","delay_ms":100,"jitter_ms":50,"for_ms":60000}`)
	post(`{"kind":"trickle","chunk":2,"chunk_delay_ms":3}`)

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	var listing struct {
		Seed  uint64     `json:"seed"`
		Rules []wireInfo `json:"rules"`
	}
	json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if listing.Seed != 99 || len(listing.Rules) != 2 {
		t.Fatalf("listing = seed %d, %d rules; want 99, 2", listing.Seed, len(listing.Rules))
	}
	if listing.Rules[0].Kind != "latency" || listing.Rules[0].DelayMS != 100 || listing.Rules[0].Backend != "b1:80" {
		t.Fatalf("rule 0 round-tripped wrong: %+v", listing.Rules[0])
	}
	if listing.Rules[0].ExpiresInMS <= 0 || listing.Rules[0].ExpiresInMS > 60000 {
		t.Fatalf("rule 0 expires_in_ms = %d", listing.Rules[0].ExpiresInMS)
	}

	// Bad kind and bad JSON are rejected.
	for _, bad := range []string{`{"kind":"nope"}`, `{{{`} {
		r2, err := http.Post(srv.URL, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST bad: %v", err)
		}
		r2.Body.Close()
		if r2.StatusCode != 400 {
			t.Fatalf("POST %s = %d; want 400", bad, r2.StatusCode)
		}
	}

	// DELETE one, then all.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"?id=1", nil)
	if r2, err := http.DefaultClient.Do(req); err != nil || r2.StatusCode != 204 {
		t.Fatalf("DELETE id=1: %v %v", r2, err)
	}
	if got := len(inj.Rules()); got != 1 {
		t.Fatalf("after DELETE id=1: %d rules; want 1", got)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL, nil)
	if r2, err := http.DefaultClient.Do(req); err != nil || r2.StatusCode != 204 {
		t.Fatalf("DELETE all: %v %v", r2, err)
	}
	if inj.Armed() {
		t.Fatalf("Armed() after DELETE all")
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	inj := New(1)
	for _, r := range []Rule{
		{Kind: "bogus"},
		{Kind: KindError, P: 1.5},
		{Kind: KindError, Status: 200},
		{Kind: KindLatency, Delay: -time.Second},
		{Kind: KindTrickle, Chunk: -1},
	} {
		if _, err := inj.Set(r); err == nil {
			t.Fatalf("Set(%+v) accepted garbage", r)
		}
	}
	if inj.Armed() {
		t.Fatalf("rejected rules left the injector armed")
	}
}

// TestConcurrentSetClearStorm pins the copy-on-write rule set under
// -race: evaluations never block on or tear against Set/Clear.
func TestConcurrentSetClearStorm(t *testing.T) {
	inj := New(5)
	rt := inj.Transport(rtFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: http.NoBody, Request: req}, nil
	}))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("GET", "http://b0:1/x", nil)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := rt.RoundTrip(req)
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		id := mustSet(t, inj, Rule{Kind: KindError, P: 0.1})
		mustSet(t, inj, Rule{Kind: KindLatency, Delay: time.Microsecond})
		inj.Clear(id)
		if i%10 == 0 {
			inj.ClearAll()
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzDebugPost: any POST body to /debug/fault gets a 400, or installs a
// rule Set accepted whose every posted field reads back unchanged
// through GET (fields left zero take Set's defaults).
func FuzzDebugPost(f *testing.F) {
	f.Add(`{"kind":"latency","backend":"127.0.0.1:9001","delay_ms":200,"jitter_ms":20,"for_ms":5000}`)
	f.Add(`{"kind":"trickle","chunk":4,"chunk_delay_ms":5,"p":0.25}`)
	f.Add(`{"kind":"error","status":503}`)
	f.Fuzz(func(t *testing.T, body string) {
		inj := New(1)
		inj.now = func() int64 { return 0 } // frozen: nothing expires between POST and GET
		h := inj.DebugHandler()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/debug/fault", strings.NewReader(body)))
		if w.Code == http.StatusBadRequest {
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("POST %q: status %d, want 200 or 400", body, w.Code)
		}
		var posted wireRule
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&posted); err != nil {
			t.Fatalf("POST %q accepted a body that does not decode: %v", body, err)
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/fault", nil))
		var got struct{ Rules []wireInfo }
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || len(got.Rules) != 1 {
			t.Fatalf("GET after POST %q: %v, %s", body, err, w.Body.Bytes())
		}
		r, want := got.Rules[0].wireRule, posted
		if want.Backend == "" {
			want.Backend = r.Backend
		}
		if want.P == 0 {
			want.P = r.P
		}
		if want.Status == 0 {
			want.Status = r.Status
		}
		if want.Chunk == 0 {
			want.Chunk = r.Chunk
		}
		if want.ChunkDelayMS == 0 {
			want.ChunkDelayMS = r.ChunkDelayMS
		}
		if r != want {
			t.Fatalf("POST %q read back as %+v, want %+v", body, r, want)
		}
	})
}
