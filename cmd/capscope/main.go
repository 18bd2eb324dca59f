// Command capscope is the one reader of the debug plane. Each
// subcommand reads one of the fleet endpoints every capserve, lone or
// routing, serves, and renders it for a human:
//
//	top       /debug/watch: one row per member — windowed rates, p99, SLO burn
//	trace     /debug/trace: ring occupancy and event kinds, or one request's waterfall
//	incident  /debug/incident: the flight recorder's bundles, or one bundle rendered
//
// Every subcommand takes the same targets, any number of them, each one
//
//   - a base URL, whose /debug/<plane> array is fetched;
//   - a JSON file in that endpoint's schema, or - for stdin;
//   - a directory. For top and trace it is an incident bundle, read from
//     its watch.json or trace.json. For incident it is a bundle, one
//     recorder's directory, or a fleet root of recorder directories (the
//     shape a routing capserve's -incident-dir holds, one per member).
//
// A bundle is a directory of the same JSON the endpoints serve, so a
// post-mortem reads what the live fleet would have answered. A target
// that fails or hangs past fetchTimeout is reported on stderr and
// skipped; one dead replica must not blind the reader to the rest.
//
// Usage (flags go before the targets):
//
//	capscope top http://localhost:8090                        # live, redraws every -interval
//	capscope top -once -json http://r1:8090 http://r2:8090    # replicated routers, one array
//	capscope trace http://localhost:8090                      # fleet summary
//	capscope trace -id 00c0ffee00c0ffee router.json backend0.json
//	curl -s localhost:8080/debug/trace | capscope trace -
//	capscope incident http://localhost:8090 /var/tmp/incidents
//	capscope incident -id inc-000003-shed_storm-1754650000000 /var/tmp/incidents
//
// top merges its targets into one dashboard: each target's lead member
// (a router replica, or a lone capserve) first, then every backend once,
// deduped by its host:port name. Its -json output is that merged array
// in the /debug/watch schema.
//
// Exit status: 0 on success, 1 when no target answers or -id names
// nothing they hold, 2 on a usage error; top -once exits 3 when any
// member's SLO error budget is exhausted (fast and slow windows both
// burning at >= 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/capdebug"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// fetchTimeout bounds every HTTP read, so a hung target is reported and
// skipped like a dead one.
const fetchTimeout = 5 * time.Second

// topSpans is how many trace spans an incident report lists.
const topSpans = 8

const usage = `usage: capscope <command> [flags] <target>...

  top [-window d] [-interval d] [-once] [-json]   fleet dashboard (/debug/watch)
  trace [-id trace-id] [-n events]                ring summary or one waterfall (/debug/trace)
  incident [-id bundle-id]                        bundle index or one bundle (/debug/incident)

A target is a base URL, a JSON file in the endpoint's schema (- is
stdin), or a directory: an incident bundle, or for incident also a
recorder's directory or a fleet root.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, &http.Client{Timeout: fetchTimeout}))
}

// cli is one invocation's outputs and HTTP client.
type cli struct {
	stdout, stderr io.Writer
	client         *http.Client
}

// run is the whole command: it parses args, reads every target through
// client, renders to stdout, reports failures on stderr and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer, client *http.Client) int {
	cmds := map[string]func(*cli, []string) int{
		"top":      (*cli).top,
		"trace":    (*cli).trace,
		"incident": (*cli).incident,
	}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	return cmds[args[0]](&cli{stdout, stderr, client}, args[1:])
}

// parse parses a subcommand's flags and returns its targets; false means
// a usage error, already reported.
func (c *cli) parse(fs *flag.FlagSet, args []string) ([]string, bool) {
	fs.SetOutput(c.stderr)
	if fs.Parse(args) != nil {
		return nil, false
	}
	if fs.NArg() == 0 {
		fmt.Fprintf(c.stderr, "capscope %s: no targets\n\n%s", fs.Name(), usage)
		return nil, false
	}
	return fs.Args(), true
}

func (c *cli) fail(format string, args ...any) int {
	fmt.Fprintf(c.stderr, "capscope: "+format+"\n", args...)
	return 1
}

// ---------------------------------------------------------------------
// Targets: one loader for every plane.

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// load reads one target's endpoint array: a URL is fetched at
// base+endpoint, a directory goes to fromDir, anything else is a file in
// the endpoint's schema.
func load[T any](client *http.Client, target, endpoint string, fromDir func(string) ([]T, error)) ([]T, error) {
	if isURL(target) {
		return capdebug.Get[[]T](client, strings.TrimRight(target, "/")+endpoint)
	}
	if fi, err := os.Stat(target); err == nil && fi.IsDir() {
		return fromDir(target)
	}
	return readFile[T](target)
}

// readFile decodes a file in an endpoint's schema; "-" is stdin.
func readFile[T any](path string) ([]T, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var v []T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return v, nil
}

// inBundle reads a bundle directory's copy of an endpoint.
func inBundle[T any](file string) func(string) ([]T, error) {
	return func(dir string) ([]T, error) { return readFile[T](filepath.Join(dir, file)) }
}

// gather loads every target, reporting and skipping one that fails or
// answers nothing. It returns the arrays that answered and their
// targets, in target order.
func gather[T any](c *cli, targets []string, endpoint string, fromDir func(string) ([]T, error)) (got [][]T, from []string) {
	for _, t := range targets {
		v, err := load(c.client, t, endpoint, fromDir)
		if err == nil && len(v) == 0 {
			err = fmt.Errorf("%s: empty array", t)
		}
		if err != nil {
			fmt.Fprintf(c.stderr, "capscope: %v\n", err)
			continue
		}
		got, from = append(got, v), append(from, t)
	}
	return got, from
}

// ---------------------------------------------------------------------
// top

func (c *cli) top(args []string) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	window := fs.Duration("window", time.Minute, "rollup window asked of live targets")
	interval := fs.Duration("interval", 2*time.Second, "poll and redraw interval")
	once := fs.Bool("once", false, "render one frame and exit (3 when a member's SLO budget is exhausted)")
	asJSON := fs.Bool("json", false, "print the merged report array, the /debug/watch schema")
	targets, ok := c.parse(fs, args)
	if !ok {
		return 2
	}
	endpoint := "/debug/watch?window=" + window.String()
	for ; ; time.Sleep(*interval) {
		fleets, _ := gather(c, targets, endpoint, inBundle[capwatch.Report](capwatch.FileWatch))
		if len(fleets) == 0 {
			if *once {
				return c.fail("no target answered")
			}
			continue
		}
		merged := mergeFleets(fleets)
		if *asJSON {
			enc := json.NewEncoder(c.stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(merged); err != nil {
				return c.fail("%v", err)
			}
		} else {
			if !*once {
				fmt.Fprint(c.stdout, "\x1b[H\x1b[2J") // home + clear: redraw in place
			}
			render(c.stdout, strings.Join(targets, " "), merged, fleets)
		}
		if *once {
			for _, r := range merged {
				if r.SLO.Exhausted {
					return 3
				}
			}
			return 0
		}
	}
}

// mergeFleets folds several targets' report arrays into one
// dashboard's row order: each fleet's lead (the router replica, or a
// lone capserve) first, then the union of backend rows deduped by their
// host:port source label — replicated routers front the same backends,
// so each backend renders once however many replicas report it (the
// first fleet listed wins).
func mergeFleets(fleets [][]capwatch.Report) []capwatch.Report {
	var leads, backends []capwatch.Report
	seen := map[string]bool{}
	for _, reps := range fleets {
		leads = append(leads, reps[0])
		for _, r := range reps[1:] {
			if seen[r.Source] {
				continue
			}
			seen[r.Source] = true
			backends = append(backends, r)
		}
	}
	return append(leads, backends...)
}

func render(w io.Writer, label string, reps []capwatch.Report, fleets [][]capwatch.Report) {
	lead := reps[0]
	fmt.Fprintf(w, "capscope top  %s  %s\n", label, time.UnixMilli(lead.NowUnixMS).Format("15:04:05"))
	fmt.Fprintf(w, "%s %s  go %s  gomaxprocs %d  |  slo: p99<%gms avail>=%.4g  fast %gs / slow %gs\n",
		lead.Source, lead.Build.Version, lead.Build.Go, lead.Build.MaxProcs,
		lead.SLO.TargetP99MS, lead.SLO.Availability, lead.SLO.Fast.WindowS, lead.SLO.Slow.WindowS)
	fmt.Fprintf(w, "window %gs (actual %.0fs, %d samples)  interval %gs  goroutines %d  heap %.1fMB\n\n",
		lead.WindowS, lead.WindowActualS, lead.WindowSamples, lead.IntervalS,
		lead.Go.Goroutines, float64(lead.Go.HeapLiveBytes)/(1<<20))

	// Every lead's backend table, for joining credits/breaker state onto
	// the backend rows (keyed by the shared host:port label). With
	// replicated routers each replica holds its own independent gauge for
	// the same backend; the first fleet listed wins the cell.
	gauges := map[string]capwatch.BackendReport{}
	for _, fl := range fleets {
		for _, br := range fl[0].Backends {
			if _, ok := gauges[br.Name]; !ok {
				gauges[br.Name] = br
			}
		}
	}

	const hdr = "%-22s %-7s %8s %7s %6s %8s %4s %9s %7s %7s %4s\n"
	const row = "%-22s %-7s %8.1f %6.1f%% %6s %8s %4s %9.2f %6.2f%% %7.2f %4d\n"
	fmt.Fprintf(w, hdr, "SOURCE", "TIER", "REQ/S", "GRANT", "QUEUE", "CREDITS", "BRK", "P99(MS)", "AVAIL", "BURN", "INC")
	for _, r := range reps {
		queue := fmt.Sprintf("%d/%d", r.QueueOccupancy, r.QueueDepth)
		credits, brk := "-", "-"
		if g, ok := gauges[r.Source]; ok {
			credits, brk = fmt.Sprintf("%d(%d)", g.Credits, g.Inflight), "ok"
			if g.Broken {
				brk = "OPEN"
			}
		}
		marker := ""
		if r.SLO.Exhausted {
			marker = " !!"
		}
		fmt.Fprintf(w, row,
			r.Source+marker, r.Tier, r.Rates.RequestsPerSec, 100*r.Rates.GrantRate,
			queue, credits, brk, r.Latency.P99MS, 100*r.Rates.Availability, r.SLO.BurnRate, r.Incidents)
	}

	if rt := lead.Router; rt != nil {
		fmt.Fprintf(w, "\nrouter tiers: remote %.1f/s  local %.1f/s  sequential %.1f/s  client-gone %.1f/s  remote-grant %.1f%%\n",
			rt.TierRemotePerSec, rt.TierLocalPerSec, rt.TierSequentialPerSec,
			rt.ClientGonePerSec, 100*rt.RemoteGrantRate)
	}
}

// ---------------------------------------------------------------------
// trace

func (c *cli) trace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	id := fs.String("id", "", "print this trace ID's waterfall instead of the summary")
	n := fs.Int("n", 0, "ask live targets for each ring's n most recent events (0 = all)")
	targets, ok := c.parse(fs, args)
	if !ok {
		return 2
	}
	var tid uint64
	if *id != "" {
		var err error
		if tid, err = captrace.ParseID(*id); err != nil {
			return c.fail("%v", err)
		}
	}
	got, _ := gather(c, targets, fmt.Sprintf("/debug/trace?n=%d", *n), inBundle[captrace.Snapshot](capwatch.FileTrace))
	if len(got) == 0 {
		return c.fail("no target answered")
	}
	snaps := slices.Concat(got...)
	if *id == "" {
		summary(c.stdout, snaps)
		return 0
	}
	evs := captrace.ByTrace(snaps...)[tid]
	if len(evs) == 0 {
		return c.fail("no events for trace ID %s in %d snapshot(s)", *id, len(snaps))
	}
	fmt.Fprintf(c.stdout, "trace %s: %d events over %s\n", captrace.FormatID(tid), len(evs), time.Duration(evs[len(evs)-1].TS-evs[0].TS))
	captrace.WriteWaterfall(c.stdout, evs)
	return 0
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
	ks := make([]captrace.Kind, 0, len(kinds))
	for k := range kinds {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	for _, k := range ks {
		fmt.Fprintf(w, "  %-14s %d\n", k, kinds[k])
	}

	if len(byTID) == 0 {
		return
	}
	tids := make([]uint64, 0, len(byTID))
	for tid := range byTID {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool {
		if a, b := len(byTID[tids[i]]), len(byTID[tids[j]]); a != b {
			return a > b
		}
		return tids[i] < tids[j]
	})
	fmt.Fprintln(w, "\nbusiest traces (pass to -id):")
	for _, tid := range tids[:min(10, len(tids))] {
		fmt.Fprintf(w, "  %s  %d events\n", captrace.FormatID(tid), len(byTID[tid]))
	}
}

// ---------------------------------------------------------------------
// incident

func (c *cli) incident(args []string) int {
	fs := flag.NewFlagSet("incident", flag.ContinueOnError)
	id := fs.String("id", "", "render this bundle instead of listing")
	targets, ok := c.parse(fs, args)
	if !ok {
		return 2
	}
	got, from := gather(c, targets, "/debug/incident", dirLists)
	if len(got) == 0 {
		return c.fail("no target answered")
	}
	if *id == "" {
		for i, lists := range got {
			list(c.stdout, from[i], lists)
		}
		return 0
	}
	for i, lists := range got {
		for _, l := range lists {
			if !slices.ContainsFunc(l.Bundles, func(m capwatch.Manifest) bool { return m.ID == *id }) {
				continue
			}
			b, err := c.bundle(from[i], l.Dir, *id)
			if err != nil {
				return c.fail("%v", err)
			}
			report(c.stdout, l.Dir, b)
			return 0
		}
	}
	return c.fail("no bundle %q in %s", *id, strings.Join(from, " "))
}

// dirLists indexes a directory target, probed from most to least
// specific: a bundle, a recorder's directory, a fleet root of recorder
// directories.
func dirLists(dir string) ([]capwatch.IncidentList, error) {
	if m, err := capwatch.LoadManifest(dir); err == nil {
		return []capwatch.IncidentList{{Source: m.Source, Dir: filepath.Dir(dir), Bundles: []capwatch.Manifest{m}}}, nil
	}
	if ms := capwatch.LoadManifests(dir); len(ms) > 0 {
		return []capwatch.IncidentList{{Source: ms[len(ms)-1].Source, Dir: dir, Bundles: ms}}, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lists []capwatch.IncidentList
	for _, e := range ents {
		sub := filepath.Join(dir, e.Name())
		if ms := capwatch.LoadManifests(sub); e.IsDir() && len(ms) > 0 {
			lists = append(lists, capwatch.IncidentList{Source: ms[len(ms)-1].Source, Dir: sub, Bundles: ms})
		}
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("%s: no incident bundles (not a bundle, recorder dir, or fleet root)", dir)
	}
	// The router's recorder leads, mirroring the endpoint's member order.
	sort.SliceStable(lists, func(i, j int) bool {
		if a, b := lists[i].Source == "caprouter", lists[j].Source == "caprouter"; a != b {
			return a
		}
		return lists[i].Source < lists[j].Source
	})
	return lists, nil
}

// bundle reads one bundle in full: over HTTP from a URL target, else
// from the list's directory.
func (c *cli) bundle(target, dir, id string) (*capwatch.Bundle, error) {
	if isURL(target) {
		b, err := capdebug.Get[capwatch.Bundle](c.client, strings.TrimRight(target, "/")+"/debug/incident?id="+url.QueryEscape(id))
		return &b, err
	}
	return capwatch.LoadBundle(filepath.Join(dir, id))
}

func list(w io.Writer, target string, lists []capwatch.IncidentList) {
	fmt.Fprintf(w, "%s\n", target)
	for _, l := range lists {
		fmt.Fprintf(w, "  %s  (%d resident, %d captured this lifetime)\n", l.Source, len(l.Bundles), l.IncidentsTotal)
		for _, m := range l.Bundles {
			fmt.Fprintf(w, "    %-44s %-22s burn %6.2f  %s\n", m.ID, m.Trigger, m.SLO.BurnRate,
				time.UnixMilli(m.TakenAtUnixMS).Format("2006-01-02 15:04:05"))
		}
	}
}

// report renders one bundle. Profiles are named, not parsed: each line
// is the command that reads the bundle's file offline.
func report(w io.Writer, dir string, b *capwatch.Bundle) {
	m := b.Manifest
	fmt.Fprintf(w, "incident %s\n", m.ID)
	fmt.Fprintf(w, "  source   %s  (%s, go %s, gomaxprocs %d)\n", m.Source, m.Build.Version, m.Build.Go, m.Build.MaxProcs)
	fmt.Fprintf(w, "  trigger  %s\n", m.Trigger)
	fmt.Fprintf(w, "  reason   %s\n", m.Reason)
	fmt.Fprintf(w, "  taken    %s  (cooldown %gs)\n", time.UnixMilli(m.TakenAtUnixMS).Format(time.RFC3339), m.CooldownS)
	fmt.Fprintf(w, "  slo      target p99 < %gms, avail >= %.4g  |  burn fast %.2f (%gs) slow %.2f (%gs)  exhausted=%v\n",
		m.SLO.TargetP99MS, m.SLO.Availability,
		m.SLO.Fast.Burn, m.SLO.Fast.WindowS, m.SLO.Slow.Burn, m.SLO.Slow.WindowS, m.SLO.Exhausted)
	for _, n := range m.Notes {
		fmt.Fprintf(w, "  note     %s\n", n)
	}

	var reps []capwatch.Report
	if json.Unmarshal(b.Watch, &reps) == nil && len(reps) > 0 {
		rep := reps[0]
		fmt.Fprintf(w, "\nrollup (%gs window, %d samples)\n", rep.WindowActualS, rep.WindowSamples)
		fmt.Fprintf(w, "  req %.1f/s  grant %.1f%%  avail %.2f%%  p50/p95/p99 %.2f/%.2f/%.2f ms\n",
			rep.Rates.RequestsPerSec, 100*rep.Rates.GrantRate, 100*rep.Rates.Availability,
			rep.Latency.P50MS, rep.Latency.P95MS, rep.Latency.P99MS)
		fmt.Fprintf(w, "  queue %d/%d  free contexts %d  goroutines %d  heap %.1fMB  incidents %d\n",
			rep.QueueOccupancy, rep.QueueDepth, rep.FreeContexts,
			rep.Go.Goroutines, float64(rep.Go.HeapLiveBytes)/(1<<20), rep.Incidents)
	}

	var fd capwatch.FaultDoc
	if json.Unmarshal(b.Fault, &fd) == nil {
		fmt.Fprintf(w, "\nfault injector: armed=%v, %d live rules\n", fd.Armed, len(fd.Rules))
		for _, r := range fd.Rules {
			scope := r.Backend
			if scope == "" {
				scope = "*"
			}
			fmt.Fprintf(w, "  #%d %s backend=%s decided=%d fired=%d\n", r.ID, r.Kind, scope, r.Decided, r.Fired)
		}
	}

	var bd capwatch.BackendsDoc
	if json.Unmarshal(b.Backends, &bd) == nil && len(bd.Backends) > 0 {
		fmt.Fprintf(w, "\nbackends (%d)\n", len(bd.Backends))
		for _, c := range bd.Backends {
			broken := ""
			if c.Broken {
				broken = "  BREAKER OPEN"
			}
			fmt.Fprintf(w, "  %-22s dispatched=%d served=%d sheds=%d ejections=%d credits=%d(%d)%s\n",
				c.Name, c.Dispatches, c.Served, c.Sheds, c.Ejections, c.Credits, c.Inflight, broken)
		}
	}

	var snaps []captrace.Snapshot
	if json.Unmarshal(b.Trace, &snaps) == nil {
		if byTID := captrace.ByTrace(snaps...); len(byTID) > 0 {
			spans := make([][]captrace.Event, 0, len(byTID))
			for _, evs := range byTID {
				spans = append(spans, evs)
			}
			dur := func(evs []captrace.Event) int64 { return evs[len(evs)-1].TS - evs[0].TS }
			sort.Slice(spans, func(i, j int) bool { return dur(spans[i]) > dur(spans[j]) })
			fmt.Fprintf(w, "\ntop trace spans (by duration)\n")
			for _, evs := range spans[:min(topSpans, len(spans))] {
				fmt.Fprintf(w, "  %s  %8.2fms  %3d events  %s -> %s  [%s]\n",
					captrace.FormatID(evs[0].TID), float64(dur(evs))/1e6, len(evs),
					evs[0].Kind, evs[len(evs)-1].Kind, evs[0].Source)
			}
		}
	}

	for _, p := range []struct{ kind, file string }{{"cpu", capwatch.FileCPU}, {"heap", capwatch.FileHeap}} {
		if slices.Contains(m.Files, p.file) {
			fmt.Fprintf(w, "\n%s profile: go tool pprof -top %s\n", p.kind, filepath.Join(dir, m.ID, p.file))
		}
	}
}
