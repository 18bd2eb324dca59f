package main

import (
	"context"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/capcluster"
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
		{[]string{"-contexts", "2000000000"}, 1}, // past capsule's ceiling: a flag error, not an OOM
	} {
		var out output
		if got := run(context.Background(), tc.args, &out, &out); got != tc.want {
			t.Errorf("run %v = %d, want %d:\n%s", tc.args, got, tc.want, out.String())
		}
	}
}

// parkedWorkers counts the capsule worker goroutines waiting for a job:
// a runtime's workers leave that wait for good only when it is closed.
func parkedWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "capsule.(*Runtime).waitForJob")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSpawnServesRemotely: caprouter -spawn 2 on -addr 127.0.0.1:0
// serves at the printed address and dispatches to a spawned backend;
// cancelling the context drains, exits 0 and closes every runtime the
// command built, the spawned backends' included.
func TestSpawnServesRemotely(t *testing.T) {
	before := parkedWorkers()
	s := start(t, "-addr", "127.0.0.1:0", "-spawn", "2", "-contexts", "2")
	for _, path := range []string{"/healthz", "/run/quicksort?n=64&seed=3"} {
		resp, err := http.Get(s.url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if route := resp.Header.Get(capcluster.HeaderRoute); path != "/healthz" && route != "remote" {
			t.Errorf("GET %s routed %q, want remote", path, route)
		}
	}
	if code := s.stop(); code != 0 {
		t.Fatalf("exit %d after a clean drain, want 0:\n%s", code, s.out)
	}
	if !strings.Contains(s.out.String(), "caprouter: final stats:") {
		t.Errorf("no final stats:\n%s", s.out)
	}
	if n := parkedWorkers() - before; n != 0 {
		t.Errorf("%d capsule workers still parked after run returned, want 0", n)
	}
}
