package capwatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// /debug/watch and the capwatch_* exposition. The handler follows the
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
// and window aggregates as scrapeable gauges. Wire it into a server's
// exposition with (*capserve.Server).AddMetrics or
// (*capcluster.Router).AddMetrics. The burn windows are evaluated at
// scrape time against the ring, so a scrape costs two window walks and
// no locks beyond the sampler's read-lock.
func (s *Sampler) WriteMetrics(w io.Writer) {
	slo := s.evalSLO()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP capwatch_samples_total Snapshots taken since the sampler was built.\n# TYPE capwatch_samples_total counter\ncapwatch_samples_total %d\n", s.cursor.Load())
	gauge("capwatch_ring_slots", "Snapshot ring capacity.", float64(len(s.ring)))
	gauge("capwatch_interval_seconds", "Sampling tick interval.", s.interval.Seconds())
	gauge("capwatch_slo_target_p99_seconds", "Latency objective the p99 must stay under.", float64(s.slo.TargetP99)/1e9)
	gauge("capwatch_slo_availability_objective", "Success-ratio objective.", s.slo.Availability)

	fmt.Fprintf(w, "# HELP capwatch_slo_burn_rate Error-budget burn rate by window and objective (1 = on pace to exhaust).\n# TYPE capwatch_slo_burn_rate gauge\n")
	for _, wv := range []struct {
		name string
		w    SLOWindow
	}{{"fast", slo.Fast}, {"slow", slo.Slow}} {
		fmt.Fprintf(w, "capwatch_slo_burn_rate{window=%q,slo=\"availability\"} %g\n", wv.name, wv.w.AvailabilityBurn)
		fmt.Fprintf(w, "capwatch_slo_burn_rate{window=%q,slo=\"latency\"} %g\n", wv.name, wv.w.LatencyBurn)
	}
	exhausted := 0.0
	if slo.Exhausted {
		exhausted = 1
	}
	gauge("capwatch_slo_budget_exhausted", "1 while both burn windows are at or above 1.", exhausted)

	fmt.Fprintf(w, "# HELP capwatch_window_p99_seconds Histogram-delta p99 over each burn window.\n# TYPE capwatch_window_p99_seconds gauge\n")
	fmt.Fprintf(w, "capwatch_window_p99_seconds{window=\"fast\"} %g\n", slo.Fast.P99MS/1e3)
	fmt.Fprintf(w, "capwatch_window_p99_seconds{window=\"slow\"} %g\n", slo.Slow.P99MS/1e3)
	fmt.Fprintf(w, "# HELP capwatch_window_availability Success ratio over each burn window.\n# TYPE capwatch_window_availability gauge\n")
	fmt.Fprintf(w, "capwatch_window_availability{window=\"fast\"} %g\n", slo.Fast.Availability)
	fmt.Fprintf(w, "capwatch_window_availability{window=\"slow\"} %g\n", slo.Slow.Availability)

	// Go runtime health from the newest snapshot (zero before the
	// first tick).
	var g GoStats
	if samples := s.Snapshot(1); len(samples) == 1 {
		g = samples[0].Go
	}
	gauge("capwatch_go_goroutines", "Goroutine count at the last tick.", float64(g.Goroutines))
	gauge("capwatch_go_heap_live_bytes", "Live heap at the last tick.", float64(g.HeapLiveBytes))
	gauge("capwatch_go_gc_pause_p99_seconds", "GC pause p99 (since process start) at the last tick.", g.GCPauseP99NS/1e9)
	gauge("capwatch_go_sched_latency_p99_seconds", "Scheduler latency p99 (since process start) at the last tick.", g.SchedLatP99NS/1e9)
}
