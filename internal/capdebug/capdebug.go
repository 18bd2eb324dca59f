// Package capdebug is the debug plane: the one place that builds, names,
// mounts and fetches the observability planes — trace (captrace), watch
// and incident (capwatch: a member's sampler is its incident recorder)
// and fault (capfault) — for cmd/capserve, lone or routing. The paper
// gives a component one way in, the same probe at every level; this
// package gives every process one way onto the debug plane.
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
//
// The package also owns the runtime flag group (RegisterRuntime) and the
// one way capserve builds a member's runtime (Flags.NewRuntime).
package capdebug

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only on the side listener
	"strings"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// maxTraceBuf is captrace's ring ceiling (32 MiB of slots per shard):
// a larger -trace-buf is a typo that would exhaust memory at startup.
const maxTraceBuf = 1 << 20

// Flags is the debug flag group, registered once by Register on
// cmd/capserve's flag set.
type Flags struct {
	Trace      bool
	TraceBuf   int
	TraceEvery int
	DebugAddr  string

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
	fs.IntVar(&f.TraceEvery, "trace-sample", 0, "trace 1 in N server-minted request IDs (0 = default)")
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

// RuntimeFlags is the runtime flag group, registered once by
// RegisterRuntime on cmd/capserve's flag set: the process's own runtime
// and accept queue (a router's local fallback tier) and the shutdown
// drain budget.
type RuntimeFlags struct {
	Contexts int
	Queue    int
	Drain    time.Duration
}

// RegisterRuntime defines the runtime group's flags on fs.
func RegisterRuntime(fs *flag.FlagSet) *RuntimeFlags {
	f := &RuntimeFlags{}
	fs.IntVar(&f.Contexts, "contexts", 0, "context pool size of this process's runtime (0 = GOMAXPROCS)")
	fs.IntVar(&f.Queue, "queue", 0, "accept-queue depth in front of it (0 = 4x contexts)")
	fs.DurationVar(&f.Drain, "drain", 10*time.Second, "graceful shutdown timeout")
	return f
}

// NewTracer returns a fresh tracer for one member, tracing 1 in
// -trace-sample of the request IDs it mints; nil (tracing off) without
// -trace. A member's tracer must exist before its runtime, which records
// into it, and its serving tiers take it from that runtime.
func (f *Flags) NewTracer() *captrace.Tracer {
	if !f.Trace {
		return nil
	}
	return captrace.New(0, f.TraceBuf).SampleEvery(f.TraceEvery)
}

// NewRuntime builds one member's runtime: contexts contexts, the
// death-rate throttle on, recording into a fresh tracer (its Tracer).
// Every runtime capserve serves from is built here.
func (f *Flags) NewRuntime(contexts int) (*capsule.Runtime, error) {
	return capsule.NewValidated(capsule.Config{Contexts: contexts, Throttle: true, Tracer: f.NewTracer()})
}

// NewPlane starts an empty plane, with the process's one fault injector
// when -fault is set.
func (f *Flags) NewPlane() (*Plane, error) {
	if f.IncidentDir != "" && !f.Watch {
		return nil, fmt.Errorf("-incident-dir requires -watch (the recorders ride the telemetry tick)")
	}
	if f.TraceEvery < 0 {
		return nil, fmt.Errorf("-trace-sample must be >= 0 (0 means %d), got %d", captrace.DefaultSample, f.TraceEvery)
	}
	if f.TraceBuf < 0 || f.TraceBuf > maxTraceBuf {
		return nil, fmt.Errorf("-trace-buf must be in [0, %d] (0 means %d), got %d", maxTraceBuf, captrace.DefaultPerShard, f.TraceBuf)
	}
	p := &Plane{flags: f}
	if f.Fault {
		p.Fault = capfault.New(f.FaultSeed)
	}
	return p, nil
}

// Tiers is what a member observes: a runtime and a serving tier always,
// a router (over Server) when it has one. A member with a Router is a
// router.
type Tiers struct {
	Runtime *capsule.Runtime
	Server  *capserve.Server
	Router  *capcluster.Router
}

// Member is one process-resident server on the plane. Sampler is nil
// without -watch and records incidents with -incident-dir; Tracer is
// nil without -trace.
type Member struct {
	Name    string
	Tracer  *captrace.Tracer
	Sampler *capwatch.Sampler
}

// Plane is one process's members, lead first, plus its fault injector.
type Plane struct {
	flags   *Flags
	Fault   *capfault.Injector // nil without -fault
	Members []*Member
	debug   *http.Server // the -debug-addr listener, nil without one
}

// Add builds a member named name over tiers and adds it to the plane:
// its sampler (started, recording incidents into dir with
// -incident-dir), wired into its server's /metrics. Members keep the
// order they were added in, except that a router member leads.
func (p *Plane) Add(name string, tr *captrace.Tracer, t Tiers, dir string) (*Member, error) {
	f := p.flags
	m := &Member{Name: name, Tracer: tr}
	if f.Watch {
		cfg := capwatch.Config{
			Source:     name,
			Interval:   f.WatchInterval,
			Runtime:    t.Runtime,
			Server:     t.Server,
			Router:     t.Router,
			SLO:        f.SLO,
			MaxBundles: f.IncidentMax,
			Cooldown:   f.IncidentCooldown,
			Fault:      p.Fault,
		}
		if f.IncidentDir != "" {
			cfg.IncidentDir = dir
		}
		s, err := capwatch.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s sampler: %w", name, err)
		}
		t.Server.AddMetrics(s.WriteMetrics)
		s.Start()
		m.Sampler = s
	}
	if t.Router != nil {
		p.Members = append([]*Member{m}, p.Members...)
	} else {
		p.Members = append(p.Members, m)
	}
	return m, nil
}

// Mount registers the three fleet endpoints over members with mount
// (a server's Mount or a ServeMux's Handle), in member order. A routing
// process mounts on its router's local server, which answers every path
// but /run through the router too. An endpoint whose plane is off for
// every member is not mounted, so it answers 404.
func Mount(mount func(pattern string, h http.Handler), members ...*Member) {
	var traces []captrace.Source
	var samplers []*capwatch.Sampler
	recording := false
	for _, m := range members {
		if m.Tracer != nil {
			traces = append(traces, captrace.Source{Name: m.Name, Tracer: m.Tracer})
		}
		if m.Sampler != nil {
			samplers = append(samplers, m.Sampler)
			recording = recording || m.Sampler.IncidentDir() != ""
		}
	}
	if len(traces) > 0 {
		mount("GET /debug/trace", captrace.Handler(traces...))
	}
	if len(samplers) > 0 {
		mount("GET /debug/watch", capwatch.Handler(samplers...))
	}
	if recording {
		mount("/debug/incident", capwatch.IncidentHandler(samplers...))
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

// ServeDebug serves DebugMux on -debug-addr in the background until
// Close, and names the bound address on w; a no-op without one. prog
// prefixes the line.
func (p *Plane) ServeDebug(prog string, w io.Writer) error {
	if p.flags.DebugAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", p.flags.DebugAddr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	p.debug = &http.Server{Handler: p.DebugMux()}
	go p.debug.Serve(ln)
	fmt.Fprintf(w, "%s: pprof and debug planes on http://%s/debug/\n", prog, ln.Addr())
	return nil
}

// Close stops every sampler (each lets an in-flight capture land its
// bundle — a flight recorder must survive the crash-adjacent exit) and
// closes the -debug-addr listener.
func (p *Plane) Close() {
	if p.debug != nil {
		p.debug.Close()
	}
	for _, m := range p.Members {
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
