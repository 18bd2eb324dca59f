// Command capscope reads incident bundles — the black-box flight
// recordings internal/capscope captures when an SLO burn, throttle
// edge, shed storm or breaker trip fires — and renders them for a
// human. It speaks both transports: live fleets over HTTP
// (/debug/incident on a capserve, caprouter or -debug-addr listener)
// and bundle directories on disk, which is how post-mortems work after
// the process is gone.
//
// Usage:
//
//	capscope list http://localhost:8090 /var/tmp/capscope   # every target's incident index
//	capscope report http://localhost:8090                   # latest bundle, rendered
//	capscope report /var/tmp/capscope inc-000003-shed_storm-1754650000000
//	capscope diff /var/tmp/capscope/caprouter/inc-000001-* /var/tmp/capscope/caprouter/inc-000002-*
//
// A directory target may be a single bundle (contains manifest.json),
// one recorder's dir (contains inc-* bundles), or a fleet root whose
// subdirectories are recorder dirs — the shape caprouter -incident-dir
// writes (one subdir per process). diff accepts any two targets that
// resolve to a bundle; a recorder dir or URL without an id means its
// latest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/capdebug"
	"repro/internal/capscope"
	"repro/internal/captrace"
	"repro/internal/capwatch"
	"repro/internal/profparse"
)

func main() {
	top := flag.Int("top", 8, "rows per top-N section (trace spans, profile functions)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "list":
		if len(rest) == 0 {
			fail("list needs at least one URL or directory")
		}
		cmdList(rest)
	case "report":
		if len(rest) < 1 || len(rest) > 2 {
			fail("report needs a target and an optional bundle id")
		}
		id := ""
		if len(rest) == 2 {
			id = rest[1]
		}
		cmdReport(rest[0], id, *top)
	case "diff":
		if len(rest) != 2 {
			fail("diff needs exactly two targets")
		}
		cmdDiff(rest[0], rest[1], *top)
	default:
		usage()
		fail("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: capscope [-top n] <command> ...

  list <url-or-dir>...        incident index per target
  report <target> [id]        render one bundle (latest when id omitted)
  diff <target-a> <target-b>  compare two bundles (latest per target)
`)
}

// ---------------------------------------------------------------------
// Target resolution: URLs and directories both yield []capscope.List.

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// endpoint normalizes a base URL to its /debug/incident endpoint.
func endpoint(base string) string {
	base = strings.TrimRight(base, "/")
	if strings.HasSuffix(base, "/debug/incident") {
		return base
	}
	return base + "/debug/incident"
}

// resolveLists turns one target into incident indexes. Directory
// targets are probed from most to least specific: a bundle dir, a
// recorder dir, a fleet root of recorder dirs.
func resolveLists(target string) ([]capscope.List, error) {
	if isURL(target) {
		return capdebug.Get[[]capscope.List](nil, endpoint(target))
	}
	if m, err := capscope.LoadManifest(target); err == nil {
		return []capscope.List{{Source: m.Source, Dir: filepath.Dir(target), Bundles: []capscope.Manifest{m}}}, nil
	}
	if ms := capscope.LoadManifests(target); len(ms) > 0 {
		return []capscope.List{{Source: ms[len(ms)-1].Source, Dir: target, Bundles: ms}}, nil
	}
	ents, err := os.ReadDir(target)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", target, err)
	}
	var lists []capscope.List
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(target, e.Name())
		if ms := capscope.LoadManifests(sub); len(ms) > 0 {
			lists = append(lists, capscope.List{Source: ms[len(ms)-1].Source, Dir: sub, Bundles: ms})
		}
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("%s: no incident bundles (not a bundle, recorder dir, or fleet root)", target)
	}
	// The router's recorder leads, mirroring the HTTP merge order.
	sort.SliceStable(lists, func(i, j int) bool {
		if a, b := lists[i].Source == "caprouter", lists[j].Source == "caprouter"; a != b {
			return a
		}
		return lists[i].Source < lists[j].Source
	})
	return lists, nil
}

// resolveBundle fetches one bundle in full. An empty id means the
// newest bundle across the target's recorders.
func resolveBundle(target, id string) (*capscope.Bundle, error) {
	lists, err := resolveLists(target)
	if err != nil {
		return nil, err
	}
	var dir string
	if id == "" {
		var latest *capscope.Manifest
		for i := range lists {
			for j := range lists[i].Bundles {
				m := &lists[i].Bundles[j]
				if latest == nil || m.TakenAtUnixMS > latest.TakenAtUnixMS {
					latest, dir = m, lists[i].Dir
				}
			}
		}
		if latest == nil {
			return nil, fmt.Errorf("%s: no incident bundles", target)
		}
		id = latest.ID
	} else {
		for _, l := range lists {
			for _, m := range l.Bundles {
				if m.ID == id {
					dir = l.Dir
				}
			}
		}
		if dir == "" {
			return nil, fmt.Errorf("%s: no bundle %q", target, id)
		}
	}
	if isURL(target) {
		b, err := capdebug.Get[capscope.Bundle](nil, endpoint(target)+"?id="+id)
		return &b, err
	}
	return capscope.LoadBundle(filepath.Join(dir, id))
}

// ---------------------------------------------------------------------
// list

func cmdList(targets []string) {
	failed := false
	for _, t := range targets {
		lists, err := resolveLists(t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capscope: %v\n", err)
			failed = true
			continue
		}
		fmt.Printf("%s\n", t)
		for _, l := range lists {
			fmt.Printf("  %s  (%d resident, %d captured this lifetime)\n",
				l.Source, len(l.Bundles), l.IncidentsTotal)
			for _, m := range l.Bundles {
				fmt.Printf("    %-44s %-22s burn %6.2f  %s\n",
					m.ID, m.Trigger, m.SLO.BurnRate,
					time.UnixMilli(m.TakenAtUnixMS).Format("2006-01-02 15:04:05"))
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------
// report

func cmdReport(target, id string, top int) {
	b, err := resolveBundle(target, id)
	if err != nil {
		fail("%v", err)
	}
	m := b.Manifest
	fmt.Printf("incident %s\n", m.ID)
	fmt.Printf("  source   %s  (%s, go %s, gomaxprocs %d)\n", m.Source, m.Build.Version, m.Build.Go, m.Build.MaxProcs)
	fmt.Printf("  trigger  %s\n", m.Trigger)
	fmt.Printf("  reason   %s\n", m.Reason)
	fmt.Printf("  taken    %s  (cooldown %gs)\n", time.UnixMilli(m.TakenAtUnixMS).Format(time.RFC3339), m.CooldownS)
	fmt.Printf("  slo      target p99 < %gms, avail >= %.4g  |  burn fast %.2f (%gs) slow %.2f (%gs)  exhausted=%v\n",
		m.SLO.TargetP99MS, m.SLO.Availability,
		m.SLO.Fast.Burn, m.SLO.Fast.WindowS, m.SLO.Slow.Burn, m.SLO.Slow.WindowS, m.SLO.Exhausted)
	for _, n := range m.Notes {
		fmt.Printf("  note     %s\n", n)
	}

	if len(b.Watch) > 0 {
		var rep capwatch.Report
		if err := json.Unmarshal(b.Watch, &rep); err == nil {
			fmt.Printf("\nrollup (%gs window, %d samples)\n", rep.WindowActualS, rep.WindowSamples)
			fmt.Printf("  req %.1f/s  grant %.1f%%  avail %.2f%%  p50/p95/p99 %.2f/%.2f/%.2f ms\n",
				rep.Rates.RequestsPerSec, 100*rep.Rates.GrantRate, 100*rep.Rates.Availability,
				rep.Latency.P50MS, rep.Latency.P95MS, rep.Latency.P99MS)
			fmt.Printf("  queue %d/%d  free contexts %d  goroutines %d  heap %.1fMB  incidents %d\n",
				rep.QueueOccupancy, rep.QueueDepth, rep.FreeContexts,
				rep.Go.Goroutines, float64(rep.Go.HeapLiveBytes)/(1<<20), rep.Incidents)
		}
	}

	if len(b.Fault) > 0 {
		var fd capscope.FaultDoc
		if err := json.Unmarshal(b.Fault, &fd); err == nil {
			fmt.Printf("\nfault injector: armed=%v, %d live rules\n", fd.Armed, len(fd.Rules))
			for _, r := range fd.Rules {
				scope := r.Backend
				if scope == "" {
					scope = "*"
				}
				fmt.Printf("  #%d %s backend=%s decided=%d fired=%d\n", r.ID, r.Kind, scope, r.Decided, r.Fired)
			}
		}
	}

	if len(b.Backends) > 0 {
		var bd capscope.BackendsDoc
		if err := json.Unmarshal(b.Backends, &bd); err == nil && len(bd.Names) > 0 {
			fmt.Printf("\nbackends (%d)\n", len(bd.Names))
			for i, name := range bd.Names {
				if i < len(bd.Backends) {
					c := bd.Backends[i]
					broken := ""
					if c.Broken {
						broken = "  BREAKER OPEN"
					}
					fmt.Printf("  %-22s dispatched=%d served=%d sheds=%d ejections=%d credits=%d(%d)%s\n",
						name, c.Dispatches, c.Served, c.Sheds, c.Ejections, c.Credits, c.Inflight, broken)
				}
			}
		}
	}

	if spans := traceSpans(b.Trace, top); len(spans) > 0 {
		fmt.Printf("\ntop trace spans (by duration)\n")
		for _, s := range spans {
			fmt.Printf("  %s  %8.2fms  %3d events  %s -> %s  [%s]\n",
				captrace.FormatID(s.tid), float64(s.dur)/1e6, s.n, s.first, s.last, s.source)
		}
	}

	printProfile("cpu profile", b.CPUProfile, top)
	printProfile("heap profile", b.HeapProfile, top)
}

type span struct {
	tid         uint64
	dur         int64
	n           int
	first, last string
	source      string
}

// traceSpans groups the bundle's trace events by trace ID and ranks
// the resulting spans by wall duration.
func traceSpans(raw json.RawMessage, top int) []span {
	if len(raw) == 0 {
		return nil
	}
	var snaps []captrace.Snapshot
	if err := json.Unmarshal(raw, &snaps); err != nil {
		return nil
	}
	byTID := captrace.ByTrace(snaps...)
	spans := make([]span, 0, len(byTID))
	for tid, evs := range byTID {
		s := span{tid: tid, n: len(evs), first: evs[0].Kind.String(), last: evs[len(evs)-1].Kind.String(),
			dur: evs[len(evs)-1].TS - evs[0].TS, source: evs[0].Source}
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].dur > spans[j].dur })
	if len(spans) > top {
		spans = spans[:top]
	}
	return spans
}

func printProfile(title string, data []byte, top int) {
	if len(data) == 0 {
		return
	}
	p, err := profparse.Parse(data)
	if err != nil {
		fmt.Printf("\n%s: unparseable (%v)\n", title, err)
		return
	}
	unit := ""
	if n := len(p.SampleTypes); n > 0 {
		unit = p.SampleTypes[n-1]
	}
	total := p.TotalValue(-1)
	fmt.Printf("\n%s (%s, total %s)\n", title, unit, fmtValue(total, unit))
	for _, e := range p.Top(top, -1) {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(e.Flat) / float64(total)
		}
		fmt.Printf("  %10s flat (%5.1f%%)  %10s cum  %s\n",
			fmtValue(e.Flat, unit), pct, fmtValue(e.Cum, unit), e.Name)
	}
}

// fmtValue renders a profile value in its unit's natural scale.
func fmtValue(v int64, unit string) string {
	switch {
	case strings.HasSuffix(unit, "/nanoseconds"):
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case strings.HasSuffix(unit, "/bytes"):
		return fmt.Sprintf("%.1fKB", float64(v)/1024)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// ---------------------------------------------------------------------
// diff

func cmdDiff(ta, tb string, top int) {
	a, err := resolveBundle(ta, "")
	if err != nil {
		fail("%v", err)
	}
	b, err := resolveBundle(tb, "")
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("a: %s  (%s, %s)\n", a.Manifest.ID, a.Manifest.Trigger,
		time.UnixMilli(a.Manifest.TakenAtUnixMS).Format(time.RFC3339))
	fmt.Printf("b: %s  (%s, %s)\n\n", b.Manifest.ID, b.Manifest.Trigger,
		time.UnixMilli(b.Manifest.TakenAtUnixMS).Format(time.RFC3339))

	row := func(name string, va, vb float64) {
		fmt.Printf("  %-16s %12.2f %12.2f %+12.2f\n", name, va, vb, vb-va)
	}
	fmt.Printf("  %-16s %12s %12s %12s\n", "", "a", "b", "delta")
	row("burn (fast)", a.Manifest.SLO.Fast.Burn, b.Manifest.SLO.Fast.Burn)
	row("burn (slow)", a.Manifest.SLO.Slow.Burn, b.Manifest.SLO.Slow.Burn)
	var ra, rb capwatch.Report
	okA := len(a.Watch) > 0 && json.Unmarshal(a.Watch, &ra) == nil
	okB := len(b.Watch) > 0 && json.Unmarshal(b.Watch, &rb) == nil
	if okA && okB {
		row("req/s", ra.Rates.RequestsPerSec, rb.Rates.RequestsPerSec)
		row("grant %", 100*ra.Rates.GrantRate, 100*rb.Rates.GrantRate)
		row("avail %", 100*ra.Rates.Availability, 100*rb.Rates.Availability)
		row("p99 ms", ra.Latency.P99MS, rb.Latency.P99MS)
		row("goroutines", float64(ra.Go.Goroutines), float64(rb.Go.Goroutines))
		row("heap MB", float64(ra.Go.HeapLiveBytes)/(1<<20), float64(rb.Go.HeapLiveBytes)/(1<<20))
	}

	movers := profileMovers(a.CPUProfile, b.CPUProfile, top)
	if len(movers) > 0 {
		fmt.Printf("\ncpu profile movers (cum, %% of own profile)\n")
		for _, mv := range movers {
			fmt.Printf("  %6.1f%% -> %6.1f%%  (%+6.1f%%)  %s\n", mv.a, mv.b, mv.b-mv.a, mv.name)
		}
	}
}

type mover struct {
	name string
	a, b float64 // percent of each profile's total
}

// profileMovers ranks functions by how much their share of cumulative
// profile weight shifted between the two captures. Shares, not raw
// values: the two bursts cover different wall spans.
func profileMovers(da, db []byte, top int) []mover {
	sa, sb := cumShares(da), cumShares(db)
	if sa == nil || sb == nil {
		return nil
	}
	names := map[string]bool{}
	for n := range sa {
		names[n] = true
	}
	for n := range sb {
		names[n] = true
	}
	movers := make([]mover, 0, len(names))
	for n := range names {
		movers = append(movers, mover{name: n, a: sa[n], b: sb[n]})
	}
	sort.Slice(movers, func(i, j int) bool {
		di, dj := movers[i].b-movers[i].a, movers[j].b-movers[j].a
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		return di > dj
	})
	if len(movers) > top {
		movers = movers[:top]
	}
	return movers
}

func cumShares(data []byte) map[string]float64 {
	if len(data) == 0 {
		return nil
	}
	p, err := profparse.Parse(data)
	if err != nil {
		return nil
	}
	total := p.TotalValue(-1)
	if total <= 0 {
		return nil
	}
	shares := map[string]float64{}
	for _, e := range p.Top(1<<20, -1) {
		shares[e.Name] = 100 * float64(e.Cum) / float64(total)
	}
	return shares
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "capscope: "+format+"\n", args...)
	os.Exit(1)
}
