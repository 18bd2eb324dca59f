package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// output is run's stdout and stderr, handing over the address its
// "listening on" line names.
type output struct {
	mu   sync.Mutex
	b    strings.Builder
	addr chan string
}

var listening = regexp.MustCompile(`listening on (\S+)`)

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.b.Write(p)
	if m := listening.FindSubmatch(p); m != nil {
		o.addr <- string(m[1])
	}
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// serving is one run of the command in the background.
type serving struct {
	url    string
	out    *output
	cancel context.CancelFunc
	done   chan int
}

// start runs the command with args until stop, returning once it
// listens.
func start(t *testing.T, args ...string) *serving {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{out: &output{addr: make(chan string, 1)}, cancel: cancel, done: make(chan int, 1)}
	go func() { s.done <- run(ctx, args, s.out, s.out) }()
	select {
	case addr := <-s.out.addr:
		s.url = "http://" + addr
	case code := <-s.done:
		t.Fatalf("run exited %d before listening:\n%s", code, s.out)
	}
	return s
}

// stop cancels run's context, which is what SIGTERM does, and returns
// the exit status.
func (s *serving) stop() int {
	s.cancel()
	return <-s.done
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-contexts", "-1"}, 1},
	} {
		var out output
		if got := run(context.Background(), tc.args, &out, &out); got != tc.want {
			t.Errorf("run %v = %d, want %d:\n%s", tc.args, got, tc.want, out.String())
		}
	}
}

// TestServeAndDrain: -addr 127.0.0.1:0 serves at the address the
// "listening on" line names, and cancelling the context drains and
// exits 0.
func TestServeAndDrain(t *testing.T) {
	s := start(t, "-addr", "127.0.0.1:0", "-contexts", "2")
	for _, path := range []string{"/healthz", "/run/quicksort?n=64&seed=3"} {
		resp, err := http.Get(s.url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	if code := s.stop(); code != 0 {
		t.Fatalf("exit %d after a clean drain, want 0:\n%s", code, s.out)
	}
	if !strings.Contains(s.out.String(), "capserve: final stats:") {
		t.Errorf("no final stats:\n%s", s.out)
	}
}

// TestDrainTimeoutExits1 holds a request in flight past -drain: a
// capfault blackhole stalls it until its client hangs up. A drain that
// did not finish must fail the exit status.
func TestDrainTimeoutExits1(t *testing.T) {
	s := start(t, "-addr", "127.0.0.1:0", "-drain", "50ms", "-fault", "-debug-addr", "127.0.0.1:0")
	m := regexp.MustCompile(`debug planes on (http://\S+)/debug/`).FindStringSubmatch(s.out.String())
	if m == nil {
		t.Fatalf("no debug address:\n%s", s.out)
	}
	faults := m[1] + "/debug/fault"
	resp, err := http.Post(faults, "application/json", strings.NewReader(`{"kind":"blackhole"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(s.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // releases the blackholed handler
	fmt.Fprint(conn, "GET /run/quicksort HTTP/1.1\r\nHost: x\r\n\r\n")
	// The request is in flight once the rule has fired on it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var doc struct{ Rules []struct{ Fired int } }
		resp, err := http.Get(faults)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err == nil && len(doc.Rules) == 1 && doc.Rules[0].Fired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the blackhole never fired: %+v (%v)", doc, err)
		}
	}
	if code := s.stop(); code != 1 {
		t.Fatalf("exit %d after a drain that timed out, want 1:\n%s", code, s.out)
	}
}
