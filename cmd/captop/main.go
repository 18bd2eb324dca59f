// Command captop is the live fleet dashboard: it polls one or more
// capserve/caprouter /debug/watch endpoints and renders one row per
// report — router (replica) rows first, then every backend they front —
// with the windowed rates, latency quantiles and SLO burn each sampler
// computed server-side. Backend rows are joined with the routers'
// per-backend tables (same host:port label), so credits, inflight and
// breaker state appear next to the backend's own grant rate and p99.
//
// -url takes a comma-separated list, so a replicated router fleet
// renders as one dashboard: each replica contributes a lead row, and
// backends appearing in several replicas' arrays are deduped by their
// host:port source label. A replica that cannot be reached is reported
// on stderr and skipped — one dead router must not blind the dashboard
// to the survivors.
//
// Usage:
//
//	captop -url http://localhost:8090              # live, redraws every -interval
//	captop -url http://localhost:8090,http://localhost:8091   # replicated routers, one dashboard
//	captop -url http://localhost:8090 -window 30s
//	captop -url http://localhost:6060 -once        # one frame, then exit
//	captop -url http://localhost:8090 -once -json  # machine-readable report array
//
// In -json mode the output is the merged report array — the same
// schema every /debug/watch serves (always an array, even for a lone
// capserve) — which is what the CI watch-smoke step asserts against.
//
// With -once the exit status is meaningful: 0 when every row's error
// budget has headroom, 3 when any row reports SLO budget exhaustion
// (fast and slow windows both burning at >= 1), 1 on fetch errors.
// The INC column counts capscope incident bundles captured by that
// process since start.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/capdebug"
	"repro/internal/capwatch"
)

func main() {
	base := flag.String("url", "http://localhost:8090", "comma-separated capserve/caprouter base URLs (each /debug/watch is polled; replica rows first, backends deduped by host:port)")
	interval := flag.Duration("interval", 2*time.Second, "poll/redraw interval")
	window := flag.Duration("window", time.Minute, "rollup window requested from the fleet")
	once := flag.Bool("once", false, "render a single frame and exit")
	asJSON := flag.Bool("json", false, "emit the merged report array as JSON (implies no screen handling)")
	flag.Parse()

	var endpoints []string
	for _, u := range strings.Split(*base, ",") {
		if u = strings.TrimSpace(u); u != "" {
			endpoints = append(endpoints, strings.TrimRight(u, "/")+"/debug/watch?window="+window.String())
		}
	}
	if len(endpoints) == 0 {
		fail("-url names no targets")
	}
	label := strings.Join(endpoints, " ")

	for {
		// Poll every endpoint; a dead replica is reported and skipped
		// rather than blinding the dashboard to the survivors. Only a
		// fully unreachable fleet is an error.
		var fleets [][]capwatch.Report
		var errs []error
		for _, ep := range endpoints {
			reps, err := capdebug.Get[[]capwatch.Report](nil, ep)
			if err == nil && len(reps) == 0 {
				err = fmt.Errorf("GET %s: empty report set", ep)
			}
			if err != nil {
				errs = append(errs, err)
				continue
			}
			fleets = append(fleets, reps)
		}
		if len(fleets) == 0 {
			if *once {
				fail("%v", errs[0])
			}
			fmt.Fprintf(os.Stderr, "captop: %v\n", errs[0])
			time.Sleep(*interval)
			continue
		}
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "captop: %v\n", err)
		}
		merged := mergeFleets(fleets)
		if *asJSON {
			// Re-encode rather than echoing the bodies: the output is the
			// merged, deduped array across every polled fleet.
			out, err := json.MarshalIndent(merged, "", "  ")
			if err != nil {
				fail("%v", err)
			}
			os.Stdout.Write(out)
			fmt.Println()
		} else {
			if !*once {
				fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
			}
			render(os.Stdout, label, merged, fleets)
		}
		if *once {
			// Exit 3 when any row's error budget is exhausted (fast AND
			// slow windows burning at >= 1) — scriptable paging: a cron
			// or CI gate distinguishes "fleet unhealthy" (3) from
			// "couldn't ask" (1) without parsing the frame.
			for _, r := range merged {
				if r.SLO.Exhausted {
					os.Exit(3)
				}
			}
			return
		}
		time.Sleep(*interval)
	}
}

// mergeFleets folds several endpoints' report arrays into one
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

func render(w io.Writer, endpoint string, reps []capwatch.Report, fleets [][]capwatch.Report) {
	lead := reps[0]
	fmt.Fprintf(w, "captop  %s  %s\n", endpoint, time.UnixMilli(lead.NowUnixMS).Format("15:04:05"))
	fmt.Fprintf(w, "%s %s  go %s  gomaxprocs %d  |  slo: p99<%gms avail>=%.4g  fast %gs / slow %gs\n",
		lead.Source, lead.Build.Version, lead.Build.Go, lead.Build.MaxProcs,
		lead.SLO.TargetP99MS, lead.SLO.Availability, lead.SLO.Fast.WindowS, lead.SLO.Slow.WindowS)
	fmt.Fprintf(w, "window %gs (actual %.0fs, %d samples)  interval %gs  goroutines %d  heap %s\n\n",
		lead.WindowS, lead.WindowActualS, lead.WindowSamples, lead.IntervalS,
		lead.Go.Goroutines, mb(lead.Go.HeapLiveBytes))

	// Every lead's backend table, for joining credits/breaker state onto
	// the backend rows (keyed by the shared host:port label). With
	// replicated routers each replica holds its own independent gauge for
	// the same backend; the first fleet listed wins the cell.
	type gauge struct {
		credits, inflight int
		broken            bool
		known             bool
	}
	gauges := map[string]gauge{}
	for _, fl := range fleets {
		for _, br := range fl[0].Backends {
			if _, ok := gauges[br.Name]; ok {
				continue
			}
			gauges[br.Name] = gauge{credits: br.Credits, inflight: br.Inflight, broken: br.Broken, known: true}
		}
	}

	const hdr = "%-22s %-7s %8s %7s %6s %8s %4s %9s %7s %7s %4s\n"
	const row = "%-22s %-7s %8.1f %6.1f%% %6s %8s %4s %9.2f %6.2f%% %7.2f %4d\n"
	fmt.Fprintf(w, hdr, "SOURCE", "TIER", "REQ/S", "GRANT", "QUEUE", "CREDITS", "BRK", "P99(MS)", "AVAIL", "BURN", "INC")
	for _, r := range reps {
		queue := fmt.Sprintf("%d/%d", r.QueueOccupancy, r.QueueDepth)
		credits, brk := "-", "-"
		if g, ok := gauges[r.Source]; ok && g.known {
			credits = fmt.Sprintf("%d(%d)", g.credits, g.inflight)
			if g.broken {
				brk = "OPEN"
			} else {
				brk = "ok"
			}
		}
		burn := r.SLO.BurnRate
		marker := ""
		if r.SLO.Exhausted {
			marker = " !!"
		}
		fmt.Fprintf(w, row,
			r.Source+marker, r.Tier, r.Rates.RequestsPerSec, 100*r.Rates.GrantRate,
			queue, credits, brk, r.Latency.P99MS, 100*r.Rates.Availability, burn, r.Incidents)
	}

	if lead.Router != nil {
		rt := lead.Router
		fmt.Fprintf(w, "\nrouter tiers: remote %.1f/s  local %.1f/s  sequential %.1f/s  client-gone %.1f/s  remote-grant %.1f%%\n",
			rt.TierRemotePerSec, rt.TierLocalPerSec, rt.TierSequentialPerSec,
			rt.ClientGonePerSec, 100*rt.RemoteGrantRate)
	}
}

func mb(b uint64) string {
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "captop: "+format+"\n", args...)
	os.Exit(1)
}
