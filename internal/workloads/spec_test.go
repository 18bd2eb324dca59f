package workloads

import (
	"testing"

	"repro/internal/cpu"
)

func TestMCFRefAndTiming(t *testing.T) {
	rng := RandFor(30, 0)
	in := GenMCF(rng, 127, 64, 2)
	best, sum := RefMCF(in)
	if best <= 0 {
		t.Fatalf("best = %d", best)
	}
	_ = sum
	for _, a := range PaperArchs() {
		v := VariantComponent
		if a.Name == "superscalar" {
			v = VariantImperative
		}
		res, err := RunMCF(in, v, a.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		sec, err := res.SectionCycles()
		if err != nil {
			t.Fatalf("%s: section: %v", a.Name, err)
		}
		if sec == 0 || sec >= res.Cycles {
			t.Fatalf("%s: section cycles %d of %d", a.Name, sec, res.Cycles)
		}
	}
}

func TestMCFDivisionAtEveryNode(t *testing.T) {
	rng := RandFor(30, 1)
	in := GenMCF(rng, 255, 32, 1)
	res, err := RunMCF(in, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Probes happen at every two-child node; with 255 slots and sparse
	// pruning there are many.
	if res.Stats.DivRequested < 20 {
		t.Fatalf("mcf should probe at every internal node, got %d", res.Stats.DivRequested)
	}
}

func TestBzip2RefDeterministic(t *testing.T) {
	rng := RandFor(31, 0)
	in := GenBzip2(rng, 200, 1)
	f1, s1 := RefBzip2(in)
	f2, s2 := RefBzip2(in)
	if f1 != f2 || s1 != s2 {
		t.Fatal("reference must be deterministic")
	}
}

func TestBzip2SuffixOrderTotal(t *testing.T) {
	block := []byte{1, 1, 2, 1, 1, 2, 3}
	for a := 0; a < len(block); a++ {
		for b := 0; b < len(block); b++ {
			if a == b {
				continue
			}
			x, y := refSuffixLess(block, a, b), refSuffixLess(block, b, a)
			if x == y {
				t.Fatalf("order not strict/total at (%d,%d)", a, b)
			}
		}
	}
}

func TestBzip2Timing(t *testing.T) {
	rng := RandFor(31, 1)
	in := GenBzip2(rng, 192, 2)
	for _, a := range PaperArchs() {
		v := VariantComponent
		if a.Name == "superscalar" {
			v = VariantImperative
		}
		res, err := RunBzip2(in, v, a.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		sec, err := res.SectionCycles()
		if err != nil {
			t.Fatal(err)
		}
		frac := float64(sec) / float64(res.Cycles)
		t.Logf("%s: %d cycles, sort section %.0f%%", a.Name, res.Cycles, 100*frac)
	}
}

func TestCraftyRefNegamax(t *testing.T) {
	rng := RandFor(32, 0)
	in := GenCrafty(rng, 3, 4, 4)
	v1 := RefCrafty(in)
	v2 := RefCrafty(in)
	if v1 != v2 {
		t.Fatal("negamax must be deterministic")
	}
	if v1 < -1000 || v1 > 1000 {
		t.Fatalf("score %d outside leaf range", v1)
	}
}

func TestCraftyImperative(t *testing.T) {
	rng := RandFor(32, 1)
	in := GenCrafty(rng, 4, 4, 0)
	res, err := RunCrafty(in, VariantImperative, cpu.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DivRequested != 0 {
		t.Fatal("imperative crafty must not probe")
	}
}

func TestCraftyPoolRunsAndInhibitsDivision(t *testing.T) {
	rng := RandFor(32, 2)
	in := GenCrafty(rng, 4, 5, 3)
	res, err := RunCrafty(in, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	// The pool spawns once at start (poolsize grants) and then manages
	// work in software: no further division traffic.
	if s.DivGranted != uint64(in.PoolSize) {
		t.Fatalf("pool grants = %d, want %d", s.DivGranted, in.PoolSize)
	}
	if s.DivRequested != uint64(in.PoolSize) {
		t.Fatalf("requests = %d: the pool should inhibit further probes", s.DivRequested)
	}
}

func TestCrafty4ContextsBeat8(t *testing.T) {
	// The paper's observation: the busy-wait pool makes the 8-context
	// machine SLOWER than the 4-context one (2.3x vs 1.7x speedup).
	rng := RandFor(32, 3)
	cfg4 := cpu.SOMTConfig()
	cfg4.Contexts = 4
	cfg8 := cpu.SOMTConfig()
	in4 := GenCrafty(rng, 4, 6, 3) // pool sized to contexts-1
	in8 := GenCrafty(rng, 4, 6, 7)
	in8.Seed = in4.Seed
	r4, err := RunCrafty(in4, VariantComponent, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunCrafty(in8, VariantComponent, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4-ctx: %d cycles; 8-ctx: %d cycles", r4.Cycles, r8.Cycles)
	if r4.Cycles > 2*r8.Cycles {
		t.Fatalf("4-context run should be competitive: 4ctx=%d 8ctx=%d", r4.Cycles, r8.Cycles)
	}
}

func TestVPRSmallConverges(t *testing.T) {
	rng := RandFor(33, 0)
	in := GenVPR(rng, 12, 12, 4, 12)
	for _, variant := range []Variant{VariantImperative, VariantComponent} {
		cfg := cpu.SOMTConfig()
		if variant == VariantImperative {
			cfg = cpu.SuperscalarConfig()
		}
		r, err := RunVPR(in, variant, cfg)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if r.Iterations < 1 || r.Iterations > int64(in.MaxIters) {
			t.Fatalf("%v: iterations = %d", variant, r.Iterations)
		}
		t.Logf("%v: %d cycles, %d iterations, converged=%v",
			variant, r.Run.Cycles, r.Iterations, r.Converged)
	}
}

func TestVPRGridAdjacency(t *testing.T) {
	if !gridAdjacent(8, 0, 1) || !gridAdjacent(8, 0, 8) {
		t.Fatal("adjacent cells rejected")
	}
	if gridAdjacent(8, 7, 8) {
		t.Fatal("row wrap accepted")
	}
	if gridAdjacent(8, 0, 2) || gridAdjacent(8, 0, 16) {
		t.Fatal("distant cells accepted")
	}
}

func TestVPRComponentUsesDivisions(t *testing.T) {
	rng := RandFor(33, 1)
	in := GenVPR(rng, 14, 14, 5, 12)
	r, err := RunVPR(in, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Run.Stats.DivGranted == 0 {
		t.Fatal("vpr exploration should divide")
	}
}
