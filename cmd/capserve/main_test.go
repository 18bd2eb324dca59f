package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/doccmd"
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

// exits runs each command line on a cancelled context, which a run
// past its checks takes for SIGTERM: it would listen, drain and exit 0.
// Each must exit want and leave no capsule worker parked.
func exits(t *testing.T, want int, lines ...[]string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range lines {
		before, out := parkedWorkers(), &output{addr: make(chan string, 1)}
		if got := run(ctx, args, out, out); got != want {
			t.Errorf("run %v = %d, want %d:\n%s", args, got, want, out)
		}
		if n := parkedWorkers() - before; n != 0 {
			t.Errorf("run %v: %d capsule workers still parked after run returned, want 0", args, n)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	exits(t, 2, []string{"-nope"})
	exits(t, 1, []string{"-contexts", "-1"},
		[]string{"-contexts", "2000000000"}, // past capsule's ceiling: a flag error, not an OOM
		[]string{"-addr", "127.0.0.1:0", "-trace", "-trace-buf", "-1"},
		[]string{"-trace", "-trace-buf", "2000000000"},          // past the trace ring's ceiling: 64 GiB per shard
		[]string{"-trace", "-trace-buf", "4611686018427387905"}) // 2^62+1: the ring's rounding never ended
}

// TestRouterUsageErrors: the usage errors of a routing capserve (the
// retired caprouter's) fail before any backend is spawned.
func TestRouterUsageErrors(t *testing.T) {
	exits(t, 2, []string{"-spawn", "1", "-nope"})
	exits(t, 1, []string{"-addr", "127.0.0.1:0", "-spawn", "-1"},
		[]string{"-addr", "127.0.0.1:0", "-spawn", "1", "-contexts", "-1"},
		[]string{"-addr", "127.0.0.1:0", "-spawn", "1", "-contexts", "2000000000"},
		// one backend listed twice would get two credit gauges
		[]string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1,http://127.0.0.1:1"})
}

// TestFailedStartClosesRuntimes: a start that fails after building
// runtimes and spawned backends exits 1 and closes every one of them.
func TestFailedStartClosesRuntimes(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	exits(t, 1, []string{"-addr", busy.Addr().String(), "-contexts", "2"},
		[]string{"-addr", busy.Addr().String(), "-contexts", "2", "-spawn", "2"},
		[]string{"-addr", "127.0.0.1:0", "-contexts", "2", "-spawn", "2", "-backends", "nope"})
}

// parkedWorkers counts the capsule worker goroutines waiting for a job:
// a runtime's workers leave that wait for good only when it is closed.
func parkedWorkers() int {
	var stacks strings.Builder
	pprof.Lookup("goroutine").WriteTo(&stacks, 2)
	return strings.Count(stacks.String(), "capsule.(*Runtime).waitForJob")
}

// serveAndDrain runs the command with args on -addr 127.0.0.1:0, GETs
// /healthz and a quicksort at the address the "listening on" line names,
// then cancels the context: the drain must exit 0, print final stats and
// close every runtime the command built. It returns the run's route.
func serveAndDrain(t *testing.T, args ...string) (route string) {
	before := parkedWorkers()
	s := start(t, append([]string{"-addr", "127.0.0.1:0", "-contexts", "2"}, args...)...)
	for _, path := range []string{"/healthz", "/run/quicksort?n=64&seed=3"} {
		resp, err := http.Get(s.url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		route = resp.Header.Get(capcluster.HeaderRoute)
	}
	if code := s.stop(); code != 0 {
		t.Fatalf("exit %d after a clean drain, want 0:\n%s", code, s.out)
	}
	if !strings.Contains(s.out.String(), "capserve: final stats:") {
		t.Errorf("no final stats:\n%s", s.out)
	}
	if n := parkedWorkers() - before; n != 0 {
		t.Errorf("%d capsule workers still parked after run returned, want 0", n)
	}
	return route
}

func TestServeAndDrain(t *testing.T) { serveAndDrain(t) }

// TestSpawnServesRemotely: with -spawn 2 the command routes, and a run
// is dispatched to a spawned backend.
func TestSpawnServesRemotely(t *testing.T) {
	if route := serveAndDrain(t, "-spawn", "2"); route != "remote" {
		t.Errorf("quicksort routed %q, want remote", route)
	}
}

// TestDrainClosesSilentConn: a connection that was dialed but never
// sent a byte carries no request, so the drain closes it at once instead
// of waiting out net/http's 5 s new-connection grace past -drain. The
// lead drains like every spawned backend.
func TestDrainClosesSilentConn(t *testing.T) {
	for name, args := range map[string][]string{"lone": nil, "spawn": {"-spawn", "1"}} {
		t.Run(name, func(t *testing.T) {
			before := parkedWorkers()
			s := start(t, append([]string{"-addr", "127.0.0.1:0", "-contexts", "2", "-drain", "1s"}, args...)...)
			silent, err := net.Dial("tcp", strings.TrimPrefix(s.url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer silent.Close()
			// The listener accepts in order, so once a later connection
			// has been served the silent one has been accepted too.
			client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			resp, err := client.Get(s.url + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if code := s.stop(); code != 0 {
				t.Fatalf("exit %d with a silent connection open, want 0:\n%s", code, s.out)
			}
			if n := parkedWorkers() - before; n != 0 {
				t.Errorf("%d capsule workers still parked after run returned, want 0", n)
			}
		})
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

// TestDocCommands parses every documented capserve command line with
// the command's own flag set; it starts nothing.
func TestDocCommands(t *testing.T) {
	doccmd.Check(t, "capserve", 10, 0, func() *flag.FlagSet { fs, _ := newFlagSet(io.Discard); return fs })
}
