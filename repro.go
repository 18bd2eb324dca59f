// Package repro is the public API of the CAPSULE reproduction: a
// hardware/software co-design for conditionally dividing component programs
// (Palatin, Lhuillier, Temam, "CAPSULE: Hardware-Assisted Parallel
// Execution of Component-Based Programs", MICRO-39, 2006), rebuilt as a
// self-contained Go system.
//
// The pieces, bottom to top:
//
//   - a 64-bit RISC ISA with the paper's component instructions
//     (nthr/kthr/mlock/munlock) — internal/isa;
//   - an assembler/linker — internal/asm — and the CapC compiler
//     (component-C with `worker` functions and `coworker` conditional
//     division) — internal/capc;
//   - the capsule runtime (worker stack pool, heap) — internal/core;
//   - a cycle-level out-of-order SMT timing model with the SOMT extensions:
//     division with death-rate throttling, a LIFO context stack with
//     latency-driven swapping, and the fast lock table — internal/cpu;
//   - the paper's benchmark suite and SPEC CINT2000 proxies —
//     internal/workloads — and every table/figure regenerator —
//     internal/exp;
//   - the native capsule runtime — internal/capsule — which ports the
//     probe/divide protocol to real goroutines (a lock-free bounded
//     context-token pool with LIFO reuse, persistent parked per-context
//     workers, an atomic death-ring throttle and a striped lock table),
//     so the same component algorithms also run at hardware speed
//     outside the simulator (see cmd/caprun; `go run ./benchmark
//     --trace 1` prices the hot path, the capsule.* rows).
//
// This package re-exports the surface a downstream user needs: compile a
// CapC program, pick one of the paper's machines, run it, and inspect
// cycles and CAPSULE statistics — or build a native Runtime and run
// component Go code on it directly.
package repro

import (
	"repro/internal/asm"
	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/prog"
)

// Program is a linked executable image.
type Program = prog.Program

// Config is a machine configuration; Stats the counters of one run.
type (
	Config = cpu.Config
	Stats  = cpu.Stats
)

// RunResult is one timing-simulation outcome.
type RunResult = core.RunResult

// Machine configurations of the paper's three processors.
func SOMT() Config        { return cpu.SOMTConfig() }
func SMT() Config         { return cpu.SMTConfig() }
func SMTStatic() Config   { return cpu.SMTStaticConfig() }
func Superscalar() Config { return cpu.SuperscalarConfig() }

// CompileCapC compiles CapC source and links the capsule runtime, returning
// a runnable program.
func CompileCapC(name, src string) (*Program, error) {
	b, err := core.BuildCapC(name, src)
	if err != nil {
		return nil, err
	}
	return b.Program, nil
}

// CompileCapCListing compiles and also returns the generated assembly and
// the Fig. 2(b)-style pre-processed listing.
func CompileCapCListing(name, src string) (p *Program, asmText, preprocessed string, err error) {
	b, err := core.BuildCapC(name, src)
	if err != nil {
		return nil, "", "", err
	}
	return b.Program, b.Compiled.Asm, b.Compiled.PreProcessed, nil
}

// Assemble links raw assembly units (plus the capsule runtime).
func Assemble(name, src string) (*Program, error) {
	return core.BuildAsm(asm.Unit{Name: name, Text: src})
}

// Run simulates p to completion on cfg.
func Run(p *Program, cfg Config) (*RunResult, error) { return core.RunTiming(p, cfg) }

// RunTraced additionally records division events (for Fig. 6-style trees).
func RunTraced(p *Program, cfg Config) (*RunResult, error) { return core.RunTimingTraced(p, cfg) }

// Experiment regenerates one of the paper's tables/figures by id (fig3,
// fig5, fig6, fig7, fig8, table1, table2, table3, crafty48, vprcache,
// divlat, ablations); quick trades input scale for runtime.
func Experiment(id string, quick bool) (string, error) {
	p := exp.Full()
	if quick {
		p = exp.Quick()
	}
	r, err := exp.Run(id, p)
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// Experiments lists the available experiment ids.
func Experiments() []string { return exp.IDs() }

// Native execution: the probe/divide protocol on real goroutines.
//
// A Runtime is one capsule execution domain; Probe/Divide follow the
// paper's protocol (divide only when a context token is free and the
// death-rate throttle is quiescent, run inline otherwise), on a
// lock-free, allocation-free hot path. A Domain is the division-capable
// scope component code is written against (Probe, then Spawn only on a
// grant): the Runtime itself, a per-task Group (shared pool, private
// join), or the Sequential fallback. A Runtime that should release its
// parked worker goroutines before process exit is shut down with Close.
type (
	Runtime       = capsule.Runtime
	RuntimeConfig = capsule.Config
	RuntimeStats  = capsule.Stats
	Domain        = capsule.Domain
	Group         = capsule.Group
)

// NewRuntime builds a native capsule runtime; zero fields of cfg take the
// documented defaults (GOMAXPROCS contexts, 100µs death window). Invalid
// (negative) fields return an error.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return capsule.NewValidated(cfg) }

// DefaultRuntime builds a native runtime with the standard configuration:
// GOMAXPROCS context tokens and death-rate throttling on.
func DefaultRuntime() *Runtime { return capsule.NewDefault() }

// Serving layer: every native workload as an HTTP endpoint on a shared
// Runtime, with probe/divide admission control, bounded-queue load
// shedding and Prometheus metrics (see internal/capserve and
// cmd/capserve / cmd/capload).
type (
	Server       = capserve.Server
	ServerConfig = capserve.Config
)

// NewServer builds the serving layer over a shared native runtime. The
// returned Server implements http.Handler.
func NewServer(cfg ServerConfig) (*Server, error) { return capserve.New(cfg) }

// Cluster tier: probe/divide across processes. A Router fronts a fleet
// of capserve backends, treating each backend's advertised free capacity
// as remote contexts — remote probes are local credit checks, backend
// failures are cluster-scope deaths feeding a circuit breaker, and
// refusals degrade to the router's own Runtime and from there to
// sequential (see internal/capcluster, and cmd/capserve's -backends and
// -spawn).
type (
	Router       = capcluster.Router
	RouterConfig = capcluster.Config
)

// NewRouter builds the cluster front end. The returned Router implements
// http.Handler: it serves /run/{workload} and hands every other path to
// cfg.Local, so /healthz, /metrics, / and /debug/* are the local
// Server's (drain and mount on it, not on the router).
func NewRouter(cfg RouterConfig) (*Router, error) { return capcluster.New(cfg) }
