// Command captrace is the read side of the flight recorder: it ingests
// trace snapshot arrays — fetched live from /debug/trace endpoints or
// read from files in the same schema (an incident bundle's trace.json
// included) — and renders them for humans.
//
// With no -id it prints the fleet summary: each snapshot's per-ring
// occupancy (written/dropped/skipped), the event-kind histogram, and
// the trace IDs with the most events. With -id it prints one request's
// waterfall: every event recorded under that ID across all ingested
// snapshots, merged into a single timeline — router span, backend
// serving span and runtime events interleaved (wall-clock timestamps
// make same-host cross-process ordering meaningful).
//
// Usage:
//
//	captrace -url http://localhost:8090                    # router summary
//	captrace -url http://r:8090,http://b1:8081,http://b2:8082
//	captrace -url http://localhost:8090 -id 00c0ffee00c0ffee
//	captrace router.json backend0.json -id 00c0ffee00c0ffee
//	curl -s localhost:8080/debug/trace | captrace -        # stdin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/capdebug"
	"repro/internal/captrace"
)

func main() {
	urls := flag.String("url", "", "comma-separated base URLs to fetch /debug/trace from")
	id := flag.String("id", "", "print this trace ID's waterfall instead of the summary")
	n := flag.Int("n", 0, "cap each fetched snapshot to its n most recent events (0 = all)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-fetch timeout")
	flag.Parse()

	var snaps []captrace.Snapshot
	client := &http.Client{Timeout: *timeout}
	if *urls != "" {
		for _, base := range strings.Split(*urls, ",") {
			got, err := capdebug.Get[[]captrace.Snapshot](client, fmt.Sprintf("%s/debug/trace?n=%d", strings.TrimSpace(base), *n))
			if err != nil {
				fail("%v (tracing not armed?)", err)
			}
			snaps = append(snaps, got...)
		}
	}
	for _, path := range flag.Args() {
		got, err := load(path)
		if err != nil {
			fail("%s: %v", path, err)
		}
		snaps = append(snaps, got...)
	}
	if len(snaps) == 0 {
		fail("nothing to read: pass -url and/or snapshot files (see -h)")
	}

	if *id != "" {
		tid, err := captrace.ParseID(*id)
		if err != nil {
			fail("%v", err)
		}
		if !waterfall(os.Stdout, snaps, tid) {
			fmt.Fprintf(os.Stderr, "captrace: no events for trace ID %s in %d snapshot(s)\n", *id, len(snaps))
			os.Exit(2)
		}
		return
	}
	summary(os.Stdout, snaps)
}

func load(path string) ([]captrace.Snapshot, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var snaps []captrace.Snapshot
	err := json.NewDecoder(r).Decode(&snaps)
	return snaps, err
}

// waterfall prints one trace ID's merged timeline; false when no
// ingested snapshot holds an event for it.
func waterfall(w io.Writer, snaps []captrace.Snapshot, tid uint64) bool {
	evs := captrace.ByTrace(snaps...)[tid]
	if len(evs) == 0 {
		return false
	}
	span := time.Duration(evs[len(evs)-1].TS - evs[0].TS)
	fmt.Fprintf(w, "trace %s: %d events over %s\n", captrace.FormatID(tid), len(evs), span)
	captrace.WriteWaterfall(w, evs)
	return true
}

// summary prints the fleet-wide view: ring occupancy per source, the
// kind histogram, and the busiest trace IDs (what to pass to -id).
func summary(w io.Writer, snaps []captrace.Snapshot) {
	for _, s := range snaps {
		fmt.Fprintf(w, "source %-16s %d events resident\n", s.Source, len(s.Events))
		for i, sh := range s.Shards {
			fmt.Fprintf(w, "  ring %2d: written=%-8d capacity=%-6d dropped=%-8d contended=%-6d skipped=%d\n",
				i, sh.Written, sh.Capacity, sh.Dropped, sh.Contended, sh.Skipped)
		}
	}

	all := captrace.MergeEvents(snaps...)
	if len(all) == 0 {
		fmt.Fprintln(w, "no events")
		return
	}

	kinds := map[captrace.Kind]int{}
	for _, ev := range all {
		kinds[ev.Kind]++
	}
	byTID := captrace.ByTrace(snaps...)

	fmt.Fprintf(w, "\n%d events, %d traced requests, spanning %s\n",
		len(all), len(byTID), time.Duration(all[len(all)-1].TS-all[0].TS))
	var ks []captrace.Kind
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for _, k := range ks {
		fmt.Fprintf(w, "  %-14s %d\n", k, kinds[k])
	}

	if len(byTID) > 0 {
		type tidCount struct {
			tid uint64
			n   int
		}
		var tids []tidCount
		for tid, evs := range byTID {
			tids = append(tids, tidCount{tid, len(evs)})
		}
		sort.Slice(tids, func(i, j int) bool {
			if tids[i].n != tids[j].n {
				return tids[i].n > tids[j].n
			}
			return tids[i].tid < tids[j].tid
		})
		if len(tids) > 10 {
			tids = tids[:10]
		}
		fmt.Fprintln(w, "\nbusiest traces (pass to -id):")
		for _, tc := range tids {
			fmt.Fprintf(w, "  %s  %d events\n", captrace.FormatID(tc.tid), tc.n)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "captrace: "+format+"\n", args...)
	os.Exit(1)
}
