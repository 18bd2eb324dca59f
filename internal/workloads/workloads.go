// Package workloads implements the paper's benchmark suite: the four core
// algorithms written as component (CapC) programs — Dijkstra, QuickSort,
// LZW and Perceptron — and synthetic proxies for the four re-engineered
// SPEC CINT2000 programs (181.mcf, 175.vpr, 256.bzip2, 186.crafty), each
// with input generators, Go reference implementations for validation, and
// baseline (imperative) variants for the superscalar comparison.
package workloads

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// Variant selects which program text a workload compiles. Native code is
// not a variant: it is the Native* functions (native.go).
type Variant uint8

const (
	// VariantComponent is the CapC component version (coworker divisions).
	VariantComponent Variant = iota
	// VariantImperative is the baseline sequential implementation the
	// paper runs on the superscalar.
	VariantImperative
)

func (v Variant) String() string {
	if v == VariantComponent {
		return "component"
	}
	return "imperative"
}

// buildCache memoises compiled programs by (workload, variant, size key):
// experiments run hundreds of data sets against the same binary.
var buildCache sync.Map

func cachedBuild(key string, src func() string) (*prog.Program, error) {
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

// Every simulated workload takes one path: image writes a data set's
// globals into a fresh image of the program built for it, and simulate
// runs that image on a machine and checks the run. A workload keeps only
// its CapC text, its list of globals and its check.

// global is one of a data set's globals: a CapC symbol (g_ and the source
// name) and the words it starts with.
type global struct {
	sym   string
	words []int64
}

// scalar is a one-word global.
func scalar(sym string, v int) global { return global{sym, []int64{int64(v)}} }

// words widens an array of narrower integers to the words a global holds.
func words[T int32 | byte](vs []T) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}

// image writes globals into a fresh image of base, leaving base as it is.
func image(base *prog.Program, globals ...global) (*prog.Program, error) {
	im := core.NewImage(base)
	for _, g := range globals {
		if err := im.SetWords(g.sym, g.words...); err != nil {
			return nil, err
		}
	}
	return im.Program(), nil
}

// check validates one run of the image p against the Go reference.
type check func(res *core.RunResult, p *prog.Program) error

// simulate runs the image p on cfg and checks the run.
func simulate(p *prog.Program, cfg cpu.Config, valid check) (*core.RunResult, error) {
	res, err := core.RunTiming(p, cfg)
	if err != nil {
		return nil, err
	}
	if err := valid(res, p); err != nil {
		return nil, err
	}
	return res, nil
}

// printed checks that the run printed exactly want, section markers aside.
func printed(name string, want ...int64) check {
	return func(res *core.RunResult, _ *prog.Program) error {
		if out := res.UserOutput(); !slices.Equal(out, want) {
			return fmt.Errorf("%s: output = %v, want %v", name, out, want)
		}
		return nil
	}
}

// stored checks that the global sym ends the run holding want.
func stored(name, sym string, want []int64) check {
	return func(res *core.RunResult, p *prog.Program) error {
		for i, w := range want {
			got, err := core.ReadWord(res.Mem, p, sym, i)
			if err != nil {
				return err
			}
			if got != w {
				return fmt.Errorf("%s: %s[%d] = %d, want %d", name, sym, i, got, w)
			}
		}
		return nil
	}
}

// Arch bundles a named machine configuration with the program variant the
// paper runs on it.
type Arch struct {
	Name    string
	Cfg     cpu.Config
	Variant Variant
}

// PaperArchs returns the paper's three machines: superscalar (imperative
// baseline), statically parallelised SMT, and SOMT with dynamic division.
func PaperArchs() []Arch {
	return []Arch{
		{Name: "superscalar", Cfg: cpu.SuperscalarConfig(), Variant: VariantImperative},
		{Name: "smt-static", Cfg: cpu.SMTStaticConfig(), Variant: VariantComponent},
		{Name: "somt", Cfg: cpu.SOMTConfig(), Variant: VariantComponent},
	}
}
