// Package cpu implements the cycle-level timing model of the paper's three
// machines: an aggressive superscalar, a standard SMT, and the SOMT
// (self-organised multithreading) processor — the SMT augmented with thread
// division (nthr/kthr), division throttling, a LIFO context stack for
// thread activation/deactivation, and the fast lock table (Section 3.1).
//
// The model is execute-ahead: each hardware context owns a functional
// cursor (internal/emu) that architecturally executes an instruction when
// the fetch stage consumes it; the pipeline then charges fetch bandwidth
// (ICOUNT.4.4), RUU/LSQ occupancy, functional-unit and cache-port
// contention, cache and memory latencies, branch mispredict redirects,
// division register-copy latency, swap latency and lock stalls.
package cpu

import (
	"repro/internal/bpred"
	"repro/internal/mem"
)

// Policy selects how the architecture answers nthr probes.
type Policy uint8

const (
	// PolicyGreedy is the paper's strategy: grant whenever a hardware
	// context is free, unless the death-rate throttle trips.
	PolicyGreedy Policy = iota
	// PolicyStatic emulates the profile-derived static parallelisation of
	// Section 4: grants flow until the context count saturates once, then
	// every later probe is denied (no re-division when workers die).
	PolicyStatic
	// PolicyDeny refuses every division (an SMT/superscalar running the
	// component binary takes every sequential fallback path).
	PolicyDeny
)

func (p Policy) String() string {
	switch p {
	case PolicyGreedy:
		return "greedy"
	case PolicyStatic:
		return "static"
	default:
		return "deny"
	}
}

// Config is the machine configuration. Defaults (Table 1) come from
// SOMTConfig, SMTConfig and SuperscalarConfig.
type Config struct {
	Name string

	Contexts int // hardware contexts

	// Front end.
	FetchWidth          int // total instructions fetched per cycle
	FetchThreads        int // threads fetching per cycle (ICOUNT.t.i)
	FetchPerThread      int // instructions per selected thread
	MaxFetchPerThread   int // burst cap when fewer threads are eligible
	BranchPredsPerCycle int // conditional-branch predictions per cycle
	FetchQueue          int // fetch buffer entries (double 16-inst buffer)
	// RoundRobinFetch replaces the ICOUNT thread-selection policy with
	// simple rotation (an ablation; Tullsen's "Exploiting Choice" showed
	// ICOUNT's advantage, which the paper's Table 1 machine adopts).
	RoundRobinFetch bool

	// Core.
	DecodeWidth int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int
	IALUs       int
	IMults      int
	FPALUs      int
	FPMults     int

	Hierarchy mem.HierarchyConfig
	Predictor bpred.Config

	// CAPSULE division support.
	DivisionPolicy Policy // PolicyDeny: no division hardware (SMT, superscalar)
	ThrottleOn     bool   // death-rate division throttling
	DeathWindow    int    // cycles (paper: 128)
	RegCopyCycles  int    // child activation delay after nthr commit
	DivExtraCycles int    // CMP-extrapolation experiment knob

	// Thread activation/deactivation (context stack).
	SwapOn        bool
	StackEntries  int // LIFO inactive-context stack depth (paper: 16)
	SwapCycles    int // register copy to/from the stack (paper: 200)
	LoadAvgWindow int // loads in the rolling latency average (paper: 1000)
	SwapThreshold int // thread counter threshold (paper: 256)

	// Rescue eviction: a context continuously blocked this many cycles may
	// be swapped out in favour of a ready stacked thread, preventing
	// priority inversion between a stacked lock owner and blocked waiters.
	RescueBlockedCycles int

	MaxCycles uint64 // simulation safety net
}

// SOMTConfig returns the paper's Table 1 SOMT machine.
func SOMTConfig() Config {
	return Config{
		Name:                "somt",
		Contexts:            8,
		FetchWidth:          16,
		FetchThreads:        4,
		FetchPerThread:      4,
		MaxFetchPerThread:   8,
		BranchPredsPerCycle: 2,
		FetchQueue:          32,
		DecodeWidth:         8,
		IssueWidth:          8,
		CommitWidth:         8,
		RUUSize:             256,
		LSQSize:             128,
		IALUs:               8,
		IMults:              4,
		FPALUs:              4,
		FPMults:             4,
		Hierarchy:           mem.DefaultHierarchy(),
		Predictor:           bpred.Default(),
		DivisionPolicy:      PolicyGreedy,
		ThrottleOn:          true,
		DeathWindow:         128,
		RegCopyCycles:       8,
		SwapOn:              true,
		StackEntries:        16,
		SwapCycles:          200,
		LoadAvgWindow:       1000,
		SwapThreshold:       256,
		RescueBlockedCycles: 800,
		MaxCycles:           2_000_000_000,
	}
}

// SMTConfig returns the standard SMT: identical resources, no division
// hardware (every nthr is denied, so component binaries run their
// sequential fallbacks unless a static schedule is imposed by the policy).
func SMTConfig() Config {
	c := SOMTConfig()
	c.Name = "smt"
	c.DivisionPolicy = PolicyDeny
	return c
}

// SMTStaticConfig returns the SMT running a statically parallelised
// component program: divisions are granted until saturation, then frozen
// (the Section 4 profile-derived static version).
func SMTStaticConfig() Config {
	c := SOMTConfig()
	c.Name = "smt-static"
	c.DivisionPolicy = PolicyStatic
	c.ThrottleOn = false
	return c
}

// SuperscalarConfig returns the aggressive superscalar with the same
// resources but a single context.
func SuperscalarConfig() Config {
	c := SOMTConfig()
	c.Name = "superscalar"
	c.Contexts = 1
	c.FetchThreads = 1
	c.FetchPerThread = 8
	c.MaxFetchPerThread = 8
	c.DivisionPolicy = PolicyDeny
	c.SwapOn = false
	return c
}

// Validate sanity-checks structural parameters.
func (c Config) Validate() error {
	if c.Contexts < 1 || c.FetchWidth < 1 || c.RUUSize < 1 || c.LSQSize < 1 {
		return errConfig("non-positive core geometry")
	}
	if c.FetchThreads < 1 || c.FetchPerThread < 1 {
		return errConfig("non-positive fetch policy")
	}
	if err := c.Hierarchy.L1I.Validate(); err != nil {
		return err
	}
	if err := c.Hierarchy.L1D.Validate(); err != nil {
		return err
	}
	if err := c.Hierarchy.L2.Validate(); err != nil {
		return err
	}
	if c.Hierarchy.MemoryCycles < 0 {
		return errConfig("negative memory latency")
	}
	if c.Hierarchy.DataPorts < 1 { // no load could ever issue
		return errConfig("no data cache port")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "cpu: bad config: " + string(e) }

// DivisionEvent records one granted division, for Fig. 6-style trees.
type DivisionEvent struct {
	Cycle  uint64
	Parent int
	Child  int
	PC     int32
}

// Stats aggregates one run's counters.
type Stats struct {
	Cycles uint64
	Insts  uint64 // committed instructions

	DivRequested uint64
	DivGranted   uint64
	Deaths       uint64

	SwapsOut       uint64
	SwapsIn        uint64
	Rescues        uint64
	ThrottleDenies uint64
	NoCtxDenies    uint64

	LockAcquires    uint64
	LockStallCycles uint64

	MispredictedBranches uint64
	BranchStats          bpred.Stats

	L1I, L1D, L2 mem.CacheStats

	FetchedInsts    uint64
	ActiveCtxCycles uint64 // sum over cycles of contexts in active state
	PeakLiveThreads int
	TotalThreads    int
	MaxStackDepth   int
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// AvgActiveContexts returns mean occupancy.
func (s Stats) AvgActiveContexts() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ActiveCtxCycles) / float64(s.Cycles)
}

// InstsPerDivision is Table 3's "# insts / division allowed".
func (s Stats) InstsPerDivision() float64 {
	if s.DivGranted == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.DivGranted)
}

// DivGrantRate is Table 3's "% divisions allowed".
func (s Stats) DivGrantRate() float64 {
	if s.DivRequested == 0 {
		return 0
	}
	return float64(s.DivGranted) / float64(s.DivRequested)
}
