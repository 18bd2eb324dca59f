//go:build smoke

// Package smoke runs capserve and caprouter as real processes, driven by
// the capload and capscope binaries, for what only a process shows:
// kill -9, the SIGTERM drain, two router replicas, bundles read after
// exit, and flag wiring. Every server listens on 127.0.0.1:0 and is found
// through its "listening on" line. Run with
//
//	go test -tags smoke ./internal/smoke
package smoke

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/capdebug"
	"repro/internal/captrace"
	"repro/internal/promtext"
)

// bin is the directory TestMain builds the four binaries into.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "smoke")
	if err != nil {
		panic(err)
	}
	bin = dir
	build := exec.Command("go", "build", "-o", dir,
		"repro/cmd/capserve", "repro/cmd/caprouter", "repro/cmd/capload", "repro/cmd/capscope")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if build.Run() == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

var listening = regexp.MustCompile(`listening on (\S+) `)

// proc is one server process; its stdout and stderr are one log.
type proc struct {
	t        *testing.T
	cmd      *exec.Cmd
	URL      string // from the "listening on" line
	up, done chan struct{}

	mu  sync.Mutex
	buf []byte
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	if m := listening.FindSubmatch(p.buf); m != nil && p.URL == "" {
		p.URL = "http://" + string(m[1])
		close(p.up)
	}
	return len(b), nil
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return string(p.buf)
}

// all returns the first group of every match of re in the log so far.
func (p *proc) all(re string) []string {
	var out []string
	for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(p.log(), -1) {
		out = append(out, m[1])
	}
	return out
}

// start runs a server binary on a free port and returns once it listens
// and its /healthz answers 200.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, up: make(chan struct{}), done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	t.Cleanup(p.kill)
	select {
	case <-p.up:
	case <-p.done:
		t.Fatalf("%s exited before listening:\n%s", name, p.log())
	}
	call(t, p.URL+"/healthz", "")
	return p
}

// capserves starts three capserve processes.
func capserves(t *testing.T, args ...string) (ps []*proc, urls []string) {
	for i := 0; i < 3; i++ {
		ps = append(ps, start(t, "capserve", args...))
		urls = append(urls, ps[i].URL)
	}
	return ps, urls
}

// term sends SIGTERM and requires a clean drain: exit 0, final stats.
func (p *proc) term() {
	p.t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	<-p.done
	if code := p.cmd.ProcessState.ExitCode(); code != 0 || !strings.Contains(p.log(), "final stats") {
		p.t.Fatalf("SIGTERM: exit %d, want 0 and final stats:\n%s", code, p.log())
	}
}

// kill is kill -9: no drain.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// scope runs capscope and requires exit 0 or one of the statuses in ok.
func scope(t *testing.T, ok []int, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "capscope"), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		t.Fatal(err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 && !slices.Contains(ok, code) {
		t.Fatalf("capscope %v: exit %d:\n%s", args, code, out)
	}
	return string(out)
}

func decode[T any](t *testing.T, s string) T {
	t.Helper()
	var v T
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		t.Fatalf("%v:\n%s", err, s)
	}
	return v
}

// debug reads one debug-plane endpoint with capdebug.Get.
func debug[T any](t *testing.T, url string) T {
	t.Helper()
	v, err := capdebug.Get[T](nil, url)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// loadReport is what the smokes read of capload's -json report.
type loadReport struct {
	OK2xx          int              `json:"ok_2xx"`
	Errors         int              `json:"errors"`
	Failed         int              `json:"failed"`
	Mismatches     int              `json:"checksum_mismatches"`
	Failovers      int              `json:"failovers"`
	TraceID        string           `json:"trace_id"`
	TraceWaterfall []captrace.Event `json:"trace_waterfall"`
}

// capload starts capload -json; the returned wait requires exit 0, some
// 2xx and no checksum mismatch, and decodes the report.
func capload(t *testing.T, args ...string) (wait func() loadReport) {
	var out bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "capload"), append(args, "-json")...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return func() loadReport {
		t.Helper()
		var r loadReport
		err := cmd.Wait()
		if err == nil {
			err = json.Unmarshal(out.Bytes(), &r)
		}
		if err != nil || r.OK2xx == 0 || r.Mismatches != 0 {
			t.Fatalf("capload %v: %v\n%s", args, err, out.Bytes())
		}
		return r
	}
}

// call GETs url, or POSTs body to it, and requires 200.
func call(t *testing.T, url, body string) string {
	t.Helper()
	method := http.MethodGet
	if body != "" {
		method = http.MethodPost
	}
	req, _ := http.NewRequest(method, url, strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", url, body, resp.StatusCode, b)
	}
	return string(b)
}

// perBackend names series{backend="host:port"} for each backend URL.
func perBackend(series string, urls []string) (out []string) {
	for _, u := range urls {
		out = append(out, series+`{backend="`+strings.TrimPrefix(u, "http://")+`"}`)
	}
	return out
}

// metrics reads /metrics through promtext, the oracle: each wanted
// series must be positive, or for a name ending in "*", present under
// any labels and value.
func metrics(t *testing.T, url string, want ...string) {
	t.Helper()
	m := promtext.Parse([]byte(call(t, url+"/metrics", "")))
	for _, w := range want {
		prefix, present := strings.CutSuffix(w, "*")
		found := !present && m[w] > 0
		for k := range m {
			found = found || present && strings.HasPrefix(k, prefix)
		}
		if !found {
			t.Errorf("%s/metrics: want %s, have %v", url, w, m[w])
		}
	}
}
