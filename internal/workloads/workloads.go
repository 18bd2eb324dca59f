// Package workloads implements the paper's benchmark suite: the four core
// algorithms written as component (CapC) programs — Dijkstra, QuickSort,
// LZW and Perceptron — and synthetic proxies for the four re-engineered
// SPEC CINT2000 programs (181.mcf, 175.vpr, 256.bzip2, 186.crafty), each
// with input generators, Go reference implementations for validation, and
// baseline (imperative) variants for the superscalar comparison.
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// Variant selects which program text a workload compiles.
type Variant uint8

const (
	// VariantComponent is the CapC component version (coworker divisions).
	VariantComponent Variant = iota
	// VariantImperative is the baseline sequential implementation the
	// paper runs on the superscalar.
	VariantImperative
	// VariantNative is the same component algorithm running natively on
	// goroutines via internal/capsule instead of the cycle-level
	// simulator (see native.go).
	VariantNative
)

func (v Variant) String() string {
	switch v {
	case VariantComponent:
		return "component"
	case VariantNative:
		return "native"
	default:
		return "imperative"
	}
}

// buildCache memoises compiled programs by (workload, variant, size key):
// experiments run hundreds of data sets against the same binary.
var buildCache sync.Map

func cachedBuild(variant Variant, key string, src func() string) (*prog.Program, error) {
	if variant == VariantNative {
		// The native variant has no CapC program: it runs on goroutines
		// via the Native* functions (native.go), never the simulator.
		return nil, fmt.Errorf("workloads: %s: VariantNative cannot be simulated; use the Native* functions on a capsule.Runtime", key)
	}
	if p, ok := buildCache.Load(key); ok {
		return p.(*prog.Program), nil
	}
	b, err := core.BuildCapC(key, src())
	if err != nil {
		return nil, fmt.Errorf("workloads: build %s: %w", key, err)
	}
	buildCache.Store(key, b.Program)
	return b.Program, nil
}

// Arch bundles a named machine configuration for experiments.
type Arch struct {
	Name string
	Cfg  cpu.Config
}

// PaperArchs returns the paper's three machines: superscalar (imperative
// baseline), statically parallelised SMT, and SOMT with dynamic division.
func PaperArchs() []Arch {
	return []Arch{
		{Name: "superscalar", Cfg: cpu.SuperscalarConfig()},
		{Name: "smt-static", Cfg: cpu.SMTStaticConfig()},
		{Name: "somt", Cfg: cpu.SOMTConfig()},
	}
}
