package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/capdebug"
	"repro/internal/capscope"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// traceID is the request every fixture's traced events carry.
const traceID = 0xc0ffee

// fixture is an in-process capserve with its trace, watch and incident
// planes mounted through capdebug.Mount, holding one captured incident
// bundle and traced events under traceID. Nothing writes to any plane
// once it is built, so two reads see the same state.
type fixture struct {
	url, dir, id string
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	tr := captrace.New(2, 1024)
	// A death-rate throttle that trips on the first worker death and
	// stays tripped: its denies fire the recorder's throttle_edge trigger.
	rt, err := capsule.NewValidated(capsule.Config{
		Contexts: 2, Throttle: true, DeathWindow: time.Hour, DeathThreshold: 1, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := capserve.New(capserve.Config{Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	s, err := capwatch.New(capwatch.Config{Runtime: rt, Server: srv, Source: "capserve"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec, err := capscope.New(capscope.Config{Source: "capserve", Dir: dir, Runtime: rt, Server: srv, ProfileDuration: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec.Arm(s)
	capdebug.Mount(srv.Mount, &capdebug.Member{Name: "capserve", Tracer: tr, Sampler: s, Recorder: rec})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); rt.Close() })

	s.SampleNow() // primes the recorder
	for deadline := time.Now().Add(5 * time.Second); rt.Stats().ThrottleDenies == 0; rt.Join() {
		rt.TryDivide(func() {})
		if time.Now().After(deadline) {
			t.Fatalf("throttle did not trip: %+v", rt.Stats())
		}
	}
	grp := rt.NewGroupTraced(traceID) // one traced request's offers
	for i := 0; i < 4; i++ {
		if c, ok := grp.Probe(); ok {
			grp.Spawn(c, func() {})
		}
	}
	grp.Join()
	s.SampleNow() // fires the capture
	rec.Close()   // lands it and detaches: no plane moves after this
	ms := capscope.LoadManifests(dir)
	if len(ms) != 1 {
		t.Fatalf("recorder captured %d bundles, want 1", len(ms))
	}
	return fixture{url: ts.URL, dir: dir, id: ms[0].ID}
}

// capscopeRun runs the command with a client that gives up after timeout.
func capscopeRun(t *testing.T, timeout time.Duration, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb, &http.Client{Timeout: timeout})
	return code, out.String(), errb.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errs := capscopeRun(t, fetchTimeout, args...)
	if code != 0 {
		t.Fatalf("capscope %q exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out, errs)
	}
	return out
}

// save writes data to a fresh file and returns its path.
func save(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// get returns the body of a plain GET.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return body
}

// TestTopRoundTrip: the -json array saved from a live target reads back
// byte for byte, and a bundle directory renders its watch.json.
func TestTopRoundTrip(t *testing.T) {
	f := newFixture(t)
	live := mustRun(t, "top", "-once", "-json", f.url)
	var reps []capwatch.Report
	if err := json.Unmarshal([]byte(live), &reps); err != nil || len(reps) != 1 || reps[0].Source != "capserve" || reps[0].Incidents != 1 {
		t.Fatalf("top -json = %v (err %v), want one capserve report with one incident", live, err)
	}
	if saved := mustRun(t, "top", "-once", "-json", save(t, "watch.json", []byte(live))); saved != live {
		t.Fatalf("top -json from its own output differs:\n%s\nvs live\n%s", saved, live)
	}

	frame := mustRun(t, "top", "-once", filepath.Join(f.dir, f.id))
	if !regexp.MustCompile(`(?m)^capserve +server `).MatchString(frame) {
		t.Fatalf("top over a bundle directory has no capserve row:\n%s", frame)
	}
}

// TestTopExitCodes: 3 when a member's budget is exhausted, 1 when no
// target answers, 2 on a usage error.
func TestTopExitCodes(t *testing.T) {
	f := newFixture(t)
	var reps []capwatch.Report
	if err := json.Unmarshal([]byte(mustRun(t, "top", "-once", "-json", f.url)), &reps); err != nil {
		t.Fatal(err)
	}
	reps[0].SLO.Exhausted = true
	burned, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"top", "-once", save(t, "burned.json", burned)}, 3},
		{[]string{"top", "-once", "-json", dead.URL, missing}, 1},
		{[]string{"top", "-once"}, 2},
		{[]string{"list", f.url}, 2},
		{nil, 2},
	} {
		if code, out, errs := capscopeRun(t, fetchTimeout, tc.args...); code != tc.want {
			t.Errorf("capscope %q exited %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, out, errs)
		}
	}
}

// TestTopSkipsHungTarget: a target that never answers costs one fetch
// timeout, is named on stderr, and the live target's frame still renders.
func TestTopSkipsHungTarget(t *testing.T) {
	f := newFixture(t)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() }))
	t.Cleanup(hung.Close)
	code, out, errs := capscopeRun(t, 200*time.Millisecond, "top", "-once", hung.URL, f.url)
	if code != 0 || !strings.Contains(out, "capserve") || !strings.Contains(errs, hung.URL) {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s\nwant exit 0, the capserve frame, and the hung target on stderr", code, out, errs)
	}
}

// TestTraceRoundTrip: a live target and its saved /debug/trace body give
// the same summary and the same waterfall.
func TestTraceRoundTrip(t *testing.T) {
	f := newFixture(t)
	body := save(t, "trace.json", get(t, f.url+"/debug/trace"))
	id := captrace.FormatID(traceID)

	summary := mustRun(t, "trace", f.url)
	if !strings.Contains(summary, "busiest traces") || !strings.Contains(summary, id) {
		t.Fatalf("summary does not list trace %s:\n%s", id, summary)
	}
	if saved := mustRun(t, "trace", body); saved != summary {
		t.Fatalf("summary from the saved body differs:\n%s\nvs live\n%s", saved, summary)
	}

	waterfall := mustRun(t, "trace", "-id", id, f.url)
	if !strings.HasPrefix(waterfall, "trace "+id+": ") {
		t.Fatalf("waterfall for %s:\n%s", id, waterfall)
	}
	if saved := mustRun(t, "trace", "-id", id, body); saved != waterfall {
		t.Fatalf("waterfall from the saved body differs:\n%s\nvs live\n%s", saved, waterfall)
	}
	if code, _, _ := capscopeRun(t, fetchTimeout, "trace", "-id", "0000000000000001", body); code != 1 {
		t.Fatalf("trace -id with no events exited %d, want 1", code)
	}
}

// TestIncidentRoundTrip: a live target and its recorder directory list
// the same bundles, and a rendered bundle names a heap profile file that
// go tool pprof can read after the recorder has closed.
func TestIncidentRoundTrip(t *testing.T) {
	f := newFixture(t)
	bundles := func(out string) []string {
		var rows []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), "inc-") {
				rows = append(rows, l)
			}
		}
		return rows
	}
	live, offline := bundles(mustRun(t, "incident", f.url)), bundles(mustRun(t, "incident", f.dir))
	if len(live) != 1 || !strings.Contains(live[0], f.id) || strings.Join(live, "\n") != strings.Join(offline, "\n") {
		t.Fatalf("live bundles %q, offline %q, want the one bundle %s both ways", live, offline, f.id)
	}

	out := mustRun(t, "incident", "-id", f.id, f.dir)
	for _, want := range []string{"trigger  " + capscope.TriggerThrottleEdge, "\nrollup (", "\ntop trace spans"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	m := regexp.MustCompile(`(?m)^heap profile: go tool pprof -top (\S+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("report names no heap profile:\n%s", out)
	}
	if fi, err := os.Stat(m[1]); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile %s: %v", m[1], err)
	}
	if live := mustRun(t, "incident", "-id", f.id, f.url); live != out {
		t.Fatalf("report over HTTP differs:\n%s\nvs offline\n%s", live, out)
	}
}
