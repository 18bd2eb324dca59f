package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/emu"
)

// Cross-validation: randomly generated CapC programs must produce identical
// architectural output on the functional golden model, the superscalar
// timing machine and the SOMT timing machine. This is the simulator's
// equivalence safety net: the timing model may change *when* things happen
// but never *what* happens.

// genRandomProgram emits a random but well-defined CapC program: a chain of
// arithmetic on locals and a global array, a loop, a helper call and a
// locked worker accumulation.
func genRandomProgram(rng *rand.Rand) string {
	n := 4 + rng.Intn(12)
	ops := []string{"+", "-", "*", "|", "&", "^"}
	expr := "a"
	for i := 0; i < 3+rng.Intn(4); i++ {
		expr = fmt.Sprintf("(%s %s %d)", expr, ops[rng.Intn(len(ops))], rng.Intn(97)+1)
	}
	spawn := rng.Intn(3) + 1
	return fmt.Sprintf(`
var arr[%d];
var acc;

func mix(a) {
	return %s;
}

worker w(v) {
	lock(&acc);
	acc = acc + mix(v);
	unlock(&acc);
	return 0;
}

func main() {
	var i;
	for (i = 0; i < %d; i = i + 1) {
		arr[i] = mix(i * 3);
	}
	var s = 0;
	for (i = 0; i < %d; i = i + 1) {
		if (arr[i] %% 2 == 0) { s = s + arr[i]; } else { s = s - arr[i]; }
	}
	print(s);
	for (i = 0; i < %d; i = i + 1) {
		coworker w(i + 1);
	}
	join();
	print(acc);
}
`, n, expr, n, n, spawn)
}

func TestCrossValidationRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		src := genRandomProgram(rng)
		b, err := BuildCapC(fmt.Sprintf("xval%d", trial), src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		// Golden model.
		fm := emu.NewMachine(b.Program, 8)
		if err := fm.Run(100_000_000); err != nil {
			t.Fatalf("trial %d functional: %v", trial, err)
		}
		// Timing machines.
		for _, cfg := range []cpu.Config{cpu.SuperscalarConfig(), cpu.SOMTConfig(), cpu.SMTStaticConfig()} {
			res, err := RunTiming(b.Program, cfg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, cfg.Name, err)
			}
			got := res.UserOutput()
			if len(got) != len(fm.Output) {
				t.Fatalf("trial %d %s: output %v vs golden %v", trial, cfg.Name, got, fm.Output)
			}
			for i := range got {
				if got[i] != fm.Output[i] {
					t.Fatalf("trial %d %s: output[%d]=%d vs golden %d",
						trial, cfg.Name, i, got[i], fm.Output[i])
				}
			}
		}
	}
}

// TestCrossValidationDeterminism: the timing simulator itself must be fully
// deterministic — identical runs produce identical cycle counts and stats.
func TestCrossValidationDeterminism(t *testing.T) {
	src := genRandomProgram(rand.New(rand.NewSource(7)))
	b, err := BuildCapC("det", src)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunTiming(b.Program, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunTiming(b.Program, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("nondeterministic cycles: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if r1.Stats.DivGranted != r2.Stats.DivGranted || r1.Stats.Insts != r2.Stats.Insts {
		t.Fatalf("nondeterministic stats: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

// TestSectionMarkers exercises the section-cycle accounting used by Fig. 8.
func TestSectionMarkers(t *testing.T) {
	src := fmt.Sprintf(`
const START = %d;
const END = %d;
func spin(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
func main() {
	spin(50);
	print(START);
	spin(3000);
	print(END);
	spin(50);
	print(7);
}
`, MarkSectionStart, MarkSectionEnd)
	b, err := BuildCapC("sections", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTiming(b.Program, cpu.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	sec, err := res.SectionCycles()
	if err != nil {
		t.Fatal(err)
	}
	if sec == 0 || sec >= res.Cycles {
		t.Fatalf("section = %d of %d", sec, res.Cycles)
	}
	// The 3000-iteration section should dominate the two 50-iteration tails.
	if float64(sec) < 0.5*float64(res.Cycles) {
		t.Fatalf("section %d suspiciously small of %d", sec, res.Cycles)
	}
	if got := res.UserOutput(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("user output = %v", got)
	}
}

// TestSectionMarkerErrors covers malformed marker sequences.
func TestSectionMarkerErrors(t *testing.T) {
	mk := func(vals ...int64) *RunResult {
		cycles := make([]uint64, len(vals))
		for i := range cycles {
			cycles[i] = uint64(i * 10)
		}
		return &RunResult{Output: vals, OutputCycles: cycles}
	}
	if _, err := mk(MarkSectionStart, MarkSectionStart).SectionCycles(); err == nil {
		t.Fatal("nested start accepted")
	}
	if _, err := mk(MarkSectionEnd).SectionCycles(); err == nil {
		t.Fatal("end without start accepted")
	}
	if _, err := mk(MarkSectionStart).SectionCycles(); err == nil {
		t.Fatal("unterminated section accepted")
	}
	if s, err := mk(MarkSectionStart, MarkSectionEnd, MarkSectionStart, MarkSectionEnd).SectionCycles(); err != nil || s != 20 {
		t.Fatalf("two sections: %d, %v", s, err)
	}
}

// TestImagePatchErrors covers input injection failure modes.
func TestImagePatchErrors(t *testing.T) {
	b, err := BuildCapC("img", `var a[2]; func main() { print(a[0]); }`)
	if err != nil {
		t.Fatal(err)
	}
	im := NewImage(b.Program)
	if err := im.SetWords("g_a", 5, 6); err != nil {
		t.Fatal(err)
	}
	if err := im.SetWords("g_a", make([]int64, 100)...); err == nil {
		t.Fatal("out-of-range patch accepted")
	}
	if err := im.SetWords("g_missing", 5); err == nil {
		t.Fatal("unknown symbol accepted")
	}
	res, err := RunTiming(im.Program(), cpu.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.UserOutput()[0] != 5 {
		t.Fatalf("patched image prints %v, want 5", res.UserOutput())
	}
	// Patching must not affect the original program's data.
	im2 := NewImage(b.Program)
	res, err = RunTiming(im2.Program(), cpu.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.UserOutput()[0] != 0 {
		t.Fatalf("base image polluted: %v", res.UserOutput())
	}
}
