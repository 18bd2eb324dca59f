package capwatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/promtext"
)

// /debug/watch, /debug/incident and the capwatch_*/capscope_*
// exposition. /debug/watch follows the
// debug plane's one merge convention (internal/capdebug): always a JSON
// array of Reports in sampler order, the lead member first — one element
// for a lone capserve, the router's own report then one per spawned
// backend for a fleet — so one URL yields the whole fleet's telemetry.

// Handler serves GET /debug/watch?window= over the given samplers.
// The window parameter is a Go duration ("30s", "5m"); absent means
// DefaultWindow.
func Handler(samplers ...*Sampler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var window time.Duration
		if v := req.URL.Query().Get("window"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				http.Error(w, "bad window: want a positive Go duration like 30s", http.StatusBadRequest)
				return
			}
			window = d
		}
		reps := make([]Report, len(samplers))
		for i, s := range samplers {
			reps[i] = s.Report(window)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reps)
	})
}

// WriteMetrics emits the sampler's capwatch_* series — the burn rates
// and window aggregates as scrapeable gauges — and, with an IncidentDir,
// the recorder's capscope_* series. Wire it into a server's
// exposition with (*capserve.Server).AddMetrics — a router's local
// server for a router. The burn windows are evaluated at
// scrape time against the ring, so a scrape costs two window walks and
// no locks beyond the sampler's read-lock.
func (s *Sampler) WriteMetrics(w io.Writer) {
	slo := s.evalSLO()
	p := promtext.NewWriter(w)

	p.Counter("capwatch_samples_total", "Snapshots taken since the sampler was built.", s.cursor.Load())
	p.Gauge("capwatch_ring_slots", "Snapshot ring capacity.", float64(len(s.ring)))
	p.Gauge("capwatch_interval_seconds", "Sampling tick interval.", s.interval.Seconds())
	p.Gauge("capwatch_slo_target_p99_seconds", "Latency objective the p99 must stay under.", float64(s.slo.TargetP99)/1e9)
	p.Gauge("capwatch_slo_availability_objective", "Success-ratio objective.", s.slo.Availability)

	p.Family("capwatch_slo_burn_rate", "gauge", "Error-budget burn rate by window and objective (1 = on pace to exhaust).")
	for _, wv := range []struct {
		name string
		w    SLOWindow
	}{{"fast", slo.Fast}, {"slow", slo.Slow}} {
		p.Value("capwatch_slo_burn_rate", wv.w.AvailabilityBurn, "window", wv.name, "slo", "availability")
		p.Value("capwatch_slo_burn_rate", wv.w.LatencyBurn, "window", wv.name, "slo", "latency")
	}
	exhausted := 0.0
	if slo.Exhausted {
		exhausted = 1
	}
	p.Gauge("capwatch_slo_budget_exhausted", "1 while both burn windows are at or above 1.", exhausted)

	p.Family("capwatch_window_p99_seconds", "gauge", "Histogram-delta p99 over each burn window.")
	p.Value("capwatch_window_p99_seconds", slo.Fast.P99MS/1e3, "window", "fast")
	p.Value("capwatch_window_p99_seconds", slo.Slow.P99MS/1e3, "window", "slow")
	p.Family("capwatch_window_availability", "gauge", "Success ratio over each burn window.")
	p.Value("capwatch_window_availability", slo.Fast.Availability, "window", "fast")
	p.Value("capwatch_window_availability", slo.Slow.Availability, "window", "slow")

	// Go runtime health from the newest snapshot (zero before the
	// first tick).
	var g GoStats
	if samples := s.Snapshot(1); len(samples) == 1 {
		g = samples[0].Go
	}
	p.Gauge("capwatch_go_goroutines", "Goroutine count at the last tick.", float64(g.Goroutines))
	p.Gauge("capwatch_go_heap_live_bytes", "Live heap at the last tick.", float64(g.HeapLiveBytes))
	p.Gauge("capwatch_go_gc_pause_p99_seconds", "GC pause p99 (since process start) at the last tick.", g.GCPauseP99NS/1e9)
	p.Gauge("capwatch_go_sched_latency_p99_seconds", "Scheduler latency p99 (since process start) at the last tick.", g.SchedLatP99NS/1e9)

	if s.rec != nil {
		s.rec.writeMetrics(p)
	}
}

// /debug/incident follows the debug plane's one merge convention
// (internal/capdebug): GET answers a JSON array of IncidentLists in
// sampler order, the lead member first — one element for a lone capserve, the
// router's list then one per spawned backend for a fleet. ?id= fetches
// one bundle in full (searched across every sampler's recorder); DELETE
// clears
// (?id= for one bundle, bare for everything).

// IncidentList is one recorder's incident index — the GET
// /debug/incident response shape.
type IncidentList struct {
	Source         string     `json:"source"`
	Dir            string     `json:"dir"`
	IncidentsTotal uint64     `json:"incidents_total"` // captured this process lifetime
	Bundles        []Manifest `json:"bundles"`         // resident on disk, oldest first
}

// listOf builds the recorder's current index.
func (r *recorder) listOf() IncidentList {
	ms := LoadManifests(r.dir)
	if ms == nil {
		ms = []Manifest{}
	}
	return IncidentList{Source: r.source, Dir: r.dir, IncidentsTotal: r.incidents.Load(), Bundles: ms}
}

// IncidentHandler serves GET/DELETE /debug/incident over the recorders
// of the given samplers (a router passes itself first, then its spawned
// backends'); a sampler without an IncidentDir is skipped.
func IncidentHandler(samplers ...*Sampler) http.Handler {
	var recs []*recorder
	for _, s := range samplers {
		if s.rec != nil {
			recs = append(recs, s.rec)
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		if id != "" && !validBundleID(id) {
			http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
			return
		}
		switch req.Method {
		case http.MethodGet:
			if id != "" {
				for _, r := range recs {
					b, err := LoadBundle(filepath.Join(r.dir, id))
					if err != nil || b.Manifest.ID != id {
						continue
					}
					w.Header().Set("Content-Type", "application/json")
					json.NewEncoder(w).Encode(b)
					return
				}
				http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
				return
			}
			lists := make([]IncidentList, len(recs))
			for i, r := range recs {
				lists[i] = r.listOf()
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(lists)
		case http.MethodDelete:
			n := 0
			for _, r := range recs {
				if id != "" {
					n += r.clear(id)
				} else {
					n += r.clearAll()
				}
			}
			if id != "" && n == 0 {
				http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"cleared\":%d}\n", n)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
