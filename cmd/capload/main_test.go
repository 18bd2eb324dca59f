package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/doccmd"
)

// report is the slice of capload's -json report the tests read.
type report struct {
	Total     int            `json:"total"`
	OK        int            `json:"ok_2xx"`
	Errors    int            `json:"errors"`
	Failed    int            `json:"failed"`
	ByCode    map[string]int `json:"by_code"`
	Mismatch  int            `json:"checksum_mismatches"`
	Failovers uint64         `json:"failovers"`
	Workloads []string       `json:"workloads"`
}

// serve starts an in-process capserve on a small runtime.
func serve(t *testing.T, contexts, queueDepth int) *httptest.Server {
	t.Helper()
	rt := capsule.New(capsule.Config{Contexts: contexts, Throttle: true})
	s, err := capserve.New(capserve.Config{Runtime: rt, QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return ts
}

// load runs capload with args plus -json and returns its exit status and
// decoded report.
func load(t *testing.T, args ...string) (int, report) {
	t.Helper()
	var out bytes.Buffer
	code := run(append(args, "-json"), &out)
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("capload %q exited %d with no JSON report: %v\n%s", args, code, err, out.String())
	}
	return code, rep
}

// TestClosedLoopVerifiesChecksums: a closed loop over a weighted mix
// against a real capserve succeeds, repeats keys, and every repeat
// returns the checksum the first one did.
func TestClosedLoopVerifiesChecksums(t *testing.T) {
	ts := serve(t, 2, 0)
	code, rep := load(t, "-url", ts.URL, "-d", "300ms", "-c", "4", "-n", "200", "-seeds", "3",
		"-mix", "quicksort=2,lzw=1", "-max-error-rate", "0")
	if code != 0 {
		t.Fatalf("exit %d, report %+v", code, rep)
	}
	if rep.OK < 10 || rep.OK != rep.Total || rep.Failed != 0 || rep.Mismatch != 0 {
		t.Fatalf("report %+v: want repeated keys, no failures, no mismatches", rep)
	}
	if strings.Join(rep.Workloads, ",") != "quicksort,quicksort,lzw" {
		t.Fatalf("mix slots = %v", rep.Workloads)
	}
}

// TestOpenLoopStormSheds: an open-loop storm against a one-slot queue is
// shed with 503s, and the server still answers once it is over.
func TestOpenLoopStormSheds(t *testing.T) {
	ts := serve(t, 2, 1)
	code, rep := load(t, "-url", ts.URL, "-d", "500ms", "-rate", "2000", "-workloads", "dijkstra", "-n", "2000")
	if code != 0 || rep.ByCode["503"] == 0 || rep.OK == 0 {
		t.Fatalf("exit %d, report %+v: want sheds and successes", code, rep)
	}
	for _, path := range []string{"/healthz", "/run/quicksort?n=100&seed=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("after the storm, GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("after the storm, GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestTargetsFailOverPastDeadReplica: with the first target refusing
// connections, requests fail over to the second and none fails.
func TestTargetsFailOverPastDeadReplica(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	live := serve(t, 2, 0)
	code, rep := load(t, "-targets", dead.URL+","+live.URL, "-d", "300ms", "-c", "2", "-n", "100",
		"-max-error-rate", "0")
	if code != 0 || rep.Failovers == 0 || rep.Failed != 0 || rep.OK == 0 {
		t.Fatalf("exit %d, report %+v: want failovers > 0 and failed == 0", code, rep)
	}
}

// stub answers every /run request with a fixed key; reply picks the
// status and checksum for the i-th request.
func stub(t *testing.T, reply func(i int64) (status int, checksum uint64)) string {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, sum := reply(n.Add(1))
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"workload":"quicksort","n":10,"seed":1,"checksum":%d}`, sum)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestChecksumMismatchExits3: two checksums for one key is a verify
// failure.
func TestChecksumMismatchExits3(t *testing.T) {
	url := stub(t, func(i int64) (int, uint64) { return http.StatusOK, uint64(i % 2) })
	code, rep := load(t, "-url", url, "-d", "200ms", "-c", "2", "-workloads", "quicksort", "-seeds", "1")
	if code != 3 || rep.Mismatch == 0 {
		t.Fatalf("exit %d, report %+v: want exit 3 with mismatches", code, rep)
	}
}

// TestServerErrorsTripMaxErrorRate: with half the requests answered 500,
// -max-error-rate 0 exits 2; without the gate the same run exits 0.
func TestServerErrorsTripMaxErrorRate(t *testing.T) {
	url := stub(t, func(i int64) (int, uint64) {
		if i%2 == 0 {
			return http.StatusInternalServerError, 7
		}
		return http.StatusOK, 7
	})
	args := []string{"-url", url, "-d", "200ms", "-c", "2", "-workloads", "quicksort"}
	code, rep := load(t, append(args, "-max-error-rate", "0")...)
	if code != 2 || rep.Failed == 0 || rep.ByCode["500"] != rep.Failed {
		t.Fatalf("exit %d, report %+v: want exit 2 with the 500s counted as failed", code, rep)
	}
	if code, rep := load(t, args...); code != 0 {
		t.Fatalf("ungated run: exit %d, report %+v", code, rep)
	}
}

// FuzzParseMix: any -mix value is an error or a slot list no longer than
// the bound allows — never a panic, never an unbounded allocation.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"quicksort=4,dijkstra=2,lzw=1", "lzw=1", " a=2 , b=3", "a=0", "a", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		wls, err := parseMix(s)
		if err != nil {
			return
		}
		if entries := strings.Count(s, ",") + 1; len(wls) == 0 || len(wls) > entries*maxMixWeight {
			t.Fatalf("parseMix(%q) = %d slots for %d entries", s, len(wls), entries)
		}
	})
}

// TestDocCommands parses, with the command's own flag set, every
// documented capload line: README's, docs/capscope.md's and the package
// comment's usage lines. A documented command must name only flags that
// exist. It runs none of them.
func TestDocCommands(t *testing.T) {
	doccmd.Check(t, "capload", 15, 0, func() *flag.FlagSet { fs, _ := newFlagSet(); return fs })
}
