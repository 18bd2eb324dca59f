// Package capdebug is the debug plane: the one place that builds, names,
// mounts and fetches the four observability planes — trace (captrace),
// watch (capwatch), incident (capscope) and fault (capfault) — for both
// serving binaries. The paper gives a component one way in, the same
// probe at every level; this package gives every process one way onto
// the debug plane.
//
// The unit is the *member*: one process-resident server (a lone
// capserve, a router, each backend a router spawned) with one name on
// every plane — its trace snapshots, its watch report, its incident
// bundles and the fault scope of its handler all carry the same source.
// A spawned backend is its host:port everywhere; the router is
// "caprouter".
//
// The merge convention is the same on every fleet endpoint: GET
// /debug/trace, /debug/watch and /debug/incident always answer a JSON
// array in member order, lead member first — a lone capserve an array
// of one — so every reader decodes one schema with one Get. Each plane
// keeps its own wire format and query parsing behind a plain
// Handler(members…) in its own package; this package only decides which
// members a mux serves. /debug/fault is served on the -debug-addr side
// listener only, never on a serving address.
package capdebug

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only on the side listener
	"os"
	"strings"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/capscope"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// Flags is the debug flag group, registered once by Register and shared
// by cmd/capserve and cmd/caprouter.
type Flags struct {
	Trace       bool
	TraceBuf    int
	TraceSample int
	DebugAddr   string

	Watch         bool
	WatchInterval time.Duration
	SLO           capwatch.SLOConfig

	Fault     bool
	FaultSeed uint64

	IncidentDir      string
	IncidentMax      int
	IncidentCooldown time.Duration
}

// Register defines the group's flags on fs. The watch ring is always
// sized from the slow SLO window, so it has no flag.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Trace, "trace", false, "record lifecycle events and route spans per member, served on /debug/trace")
	fs.IntVar(&f.TraceBuf, "trace-buf", 0, "trace ring slots per shard (0 = default)")
	fs.IntVar(&f.TraceSample, "trace-sample", 0, "trace 1 in N server-minted request IDs (0 = default)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve pprof, /debug/{trace,watch,incident} and /debug/fault on this separate address (empty = off)")
	fs.BoolVar(&f.Watch, "watch", true, "continuous telemetry sampler per member, served on /debug/watch")
	fs.DurationVar(&f.WatchInterval, "watch-interval", capwatch.DefaultInterval, "telemetry sampling tick")
	fs.DurationVar(&f.SLO.TargetP99, "slo-p99", capwatch.DefaultTargetP99, "SLO latency target: windowed p99 must stay under this")
	fs.Float64Var(&f.SLO.Availability, "slo-avail", capwatch.DefaultAvailability, "SLO availability objective (fraction of valid requests served)")
	fs.DurationVar(&f.SLO.FastWindow, "slo-fast", capwatch.DefaultFastWindow, "fast burn-rate window")
	fs.DurationVar(&f.SLO.SlowWindow, "slo-slow", capwatch.DefaultSlowWindow, "slow burn-rate window")
	fs.BoolVar(&f.Fault, "fault", false, "arm the capfault injection layer, scripted via /debug/fault on -debug-addr (backend-scoped rules match member names)")
	fs.Uint64Var(&f.FaultSeed, "fault-seed", 1, "capfault decision-stream seed (same seed + same rules = same faults)")
	fs.StringVar(&f.IncidentDir, "incident-dir", "", "capture burn-triggered incident bundles into this directory, served on /debug/incident (empty = off; requires -watch)")
	fs.IntVar(&f.IncidentMax, "incident-max", 0, "bound on resident incident bundles per member (0 = default)")
	fs.DurationVar(&f.IncidentCooldown, "incident-cooldown", 0, "per-trigger debounce between captures (0 = default)")
	return f
}

// NewTracer returns a fresh tracer for one member, nil (tracing off)
// without -trace. A member's tracer must exist before its runtime, which
// records into it.
func (f *Flags) NewTracer() *captrace.Tracer {
	if !f.Trace {
		return nil
	}
	return captrace.New(0, f.TraceBuf)
}

// NewPlane starts an empty plane, with the process's one fault injector
// when -fault is set.
func (f *Flags) NewPlane() (*Plane, error) {
	if f.IncidentDir != "" && !f.Watch {
		return nil, fmt.Errorf("-incident-dir requires -watch (the recorders ride the telemetry tick)")
	}
	p := &Plane{flags: f}
	if f.Fault {
		p.Fault = capfault.New(f.FaultSeed)
	}
	return p, nil
}

// Tiers is what a member observes: a runtime always, a serving tier and
// a router when it has them. A member with a Router is a router.
type Tiers struct {
	Runtime *capsule.Runtime
	Server  *capserve.Server
	Router  *capcluster.Router
}

// addMetrics wires an exposition writer into the member's /metrics:
// the router's when it is one, else the server's.
func (t Tiers) addMetrics(f func(io.Writer)) {
	if t.Router != nil {
		t.Router.AddMetrics(f)
		return
	}
	t.Server.AddMetrics(f)
}

// Member is one process-resident server on the plane. Sampler is nil
// without -watch, Recorder nil without -incident-dir, Tracer nil
// without -trace.
type Member struct {
	Name     string
	Tracer   *captrace.Tracer
	Sampler  *capwatch.Sampler
	Recorder *capscope.Recorder
}

// Plane is one process's members, lead first, plus its fault injector.
type Plane struct {
	flags   *Flags
	Fault   *capfault.Injector // nil without -fault
	Members []*Member
}

// Add builds a member named name over tiers and adds it to the plane:
// its sampler (started) and armed recorder, both wired into the member's
// /metrics. dir is the member's bundle directory, used with
// -incident-dir. Members keep the order they were added in, except that
// a router member leads.
func (p *Plane) Add(name string, tr *captrace.Tracer, t Tiers, dir string) (*Member, error) {
	f := p.flags
	m := &Member{Name: name, Tracer: tr}
	if f.Watch {
		s, err := capwatch.New(capwatch.Config{
			Source:   name,
			Interval: f.WatchInterval,
			Runtime:  t.Runtime,
			Server:   t.Server,
			Router:   t.Router,
			SLO:      f.SLO,
		})
		if err != nil {
			return nil, fmt.Errorf("%s sampler: %w", name, err)
		}
		t.addMetrics(s.WriteMetrics)
		m.Sampler = s
	}
	if f.IncidentDir != "" {
		r, err := capscope.New(capscope.Config{
			Source:     name,
			Dir:        dir,
			MaxBundles: f.IncidentMax,
			Cooldown:   f.IncidentCooldown,
			Runtime:    t.Runtime,
			Server:     t.Server,
			Router:     t.Router,
			Tracer:     tr,
			Fault:      p.Fault,
		})
		if err != nil {
			return nil, fmt.Errorf("%s recorder: %w", name, err)
		}
		r.Arm(m.Sampler)
		t.addMetrics(r.WriteMetrics)
		m.Recorder = r
	}
	if m.Sampler != nil {
		m.Sampler.Start()
	}
	if t.Router != nil {
		p.Members = append([]*Member{m}, p.Members...)
	} else {
		p.Members = append(p.Members, m)
	}
	return m, nil
}

// Mount registers the three fleet endpoints over members with mount
// (a server's or router's Mount, a ServeMux's Handle), in member order.
// An endpoint whose plane is off for every member is not mounted, so it
// answers 404.
func Mount(mount func(pattern string, h http.Handler), members ...*Member) {
	var traces []captrace.Source
	var samplers []*capwatch.Sampler
	var recorders []*capscope.Recorder
	for _, m := range members {
		if m.Tracer != nil {
			traces = append(traces, captrace.Source{Name: m.Name, Tracer: m.Tracer})
		}
		if m.Sampler != nil {
			samplers = append(samplers, m.Sampler)
		}
		if m.Recorder != nil {
			recorders = append(recorders, m.Recorder)
		}
	}
	if len(traces) > 0 {
		mount("GET /debug/trace", captrace.Handler(traces...))
	}
	if len(samplers) > 0 {
		mount("GET /debug/watch", capwatch.Handler(samplers...))
	}
	if len(recorders) > 0 {
		mount("/debug/incident", capscope.Handler(recorders...))
	}
}

// DebugMux is the side listener's mux: pprof, the three fleet endpoints
// over every member, and /debug/fault when the injector is armed.
func (p *Plane) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	Mount(mux.Handle, p.Members...)
	if p.Fault != nil {
		mux.Handle("/debug/fault", p.Fault.DebugHandler())
	}
	return mux
}

// ServeDebug serves DebugMux on -debug-addr in the background; a no-op
// without one. prog prefixes the log lines.
func (p *Plane) ServeDebug(prog string) {
	addr := p.flags.DebugAddr
	if addr == "" {
		return
	}
	mux := p.DebugMux()
	go func() {
		fmt.Printf("%s: pprof and debug planes on http://%s/debug/\n", prog, addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "%s: debug listener: %v\n", prog, err)
		}
	}()
}

// Close detaches every recorder (letting an in-flight capture land its
// bundle — a flight recorder must survive the crash-adjacent exit) and
// stops every sampler.
func (p *Plane) Close() {
	for _, m := range p.Members {
		if m.Recorder != nil {
			m.Recorder.Close()
		}
		if m.Sampler != nil {
			m.Sampler.Stop()
		}
	}
}

// Get fetches one debug endpoint and decodes its JSON body into T. Every
// fleet endpoint answers an array, so T is a slice for all of them; a
// single incident bundle (?id=) is the one object. A nil client means
// http.DefaultClient.
func Get[T any](c *http.Client, url string) (T, error) {
	var v T
	if c == nil {
		c = http.DefaultClient
	}
	resp, err := c.Get(url)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return v, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("GET %s: %v", url, err)
	}
	return v, nil
}
