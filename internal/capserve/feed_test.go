package capserve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// readDelta scans the SSE stream to the next `data:` line and decodes
// it.
func readDelta(t *testing.T, sc *bufio.Scanner) CreditDelta {
	t.Helper()
	for sc.Scan() {
		raw, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var d CreditDelta
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			t.Fatalf("bad delta %q: %v", raw, err)
		}
		return d
	}
	t.Fatalf("stream ended without a delta: %v", sc.Err())
	return CreditDelta{}
}

// TestCreditFeedStream pins the push plane's wire contract: the first
// delta arrives immediately (a subscription is also a snapshot), idle
// heartbeats keep coming, sequence numbers are strictly increasing,
// and the advertised headroom matches the header path's view.
func TestCreditFeedStream(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, FeedHeartbeat: 20 * time.Millisecond})

	resp, err := http.Get(ts.URL + "/debug/credits")
	if err != nil {
		t.Fatalf("GET /debug/credits: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	first := readDelta(t, sc)
	if first.Seq == 0 {
		t.Fatal("first delta has seq 0; seqs must start at 1")
	}
	if first.QueueFree != 8 {
		t.Fatalf("initial QueueFree = %d on an idle server, want 8", first.QueueFree)
	}
	if first.Draining {
		t.Fatal("initial delta claims draining on a live server")
	}

	// Heartbeats flow while idle, seqs strictly increase.
	prev := first.Seq
	for i := 0; i < 3; i++ {
		d := readDelta(t, sc)
		if d.Seq <= prev {
			t.Fatalf("seq regressed: %d after %d", d.Seq, prev)
		}
		prev = d.Seq
	}
}

// TestCreditFeedDraining pins the shutdown contract from both sides: an
// established stream ends with a Draining=true delta the moment drain
// begins (so graceful Shutdown never waits on subscribers), and a new
// subscription to a draining server is refused with 503.
func TestCreditFeedDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, FeedHeartbeat: time.Minute})

	resp, err := http.Get(ts.URL + "/debug/credits")
	if err != nil {
		t.Fatalf("GET /debug/credits: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	readDelta(t, sc) // the snapshot

	// Drain mid-stream. The heartbeat is a minute out, so the final
	// delta can only arrive via SetDraining's publish.
	s.SetDraining(true)
	final := readDelta(t, sc)
	if !final.Draining {
		t.Fatalf("delta after SetDraining has Draining=false: %+v", final)
	}
	// And the stream is over: the server closed it, not us. Only the
	// event separator may trail the final delta.
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			t.Fatalf("delta after the draining delta: %q", sc.Text())
		}
	}

	// A draining server refuses new subscriptions outright.
	resp2, err := http.Get(ts.URL + "/debug/credits")
	if err != nil {
		t.Fatalf("GET /debug/credits while draining: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscription while draining: status %d, want 503", resp2.StatusCode)
	}
}
