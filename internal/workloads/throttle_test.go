package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

func TestGenLZWShape(t *testing.T) {
	rng := RandFor(20, 9)
	in := GenLZW(rng, 300)
	if len(in.Text) != 300 {
		t.Fatal("bad text length")
	}
	if len(in.Next)%lzwAlpha != 0 || len(in.Next) == 0 {
		t.Fatal("trie arity broken")
	}
	for _, v := range in.Next {
		if v >= 0 && int(v) >= len(in.Next)/lzwAlpha {
			t.Fatalf("trie edge out of range: %d", v)
		}
	}
	for _, c := range in.Text {
		if int(c) >= lzwAlpha {
			t.Fatalf("symbol out of alphabet: %d", c)
		}
	}
}

func TestRefLZWMatchBasics(t *testing.T) {
	// Trie with only the root: every symbol is a literal.
	in := &LZWInput{Text: []byte{0, 1, 2, 3}, Next: make([]int32, lzwAlpha)}
	for i := range in.Next {
		in.Next[i] = -1
	}
	if got := RefLZWMatch(in, 4); got != 4 {
		t.Fatalf("all-literal codes = %d", got)
	}
	// Trie knowing "0" and "00": "0000" in one chunk -> two codes.
	in2 := &LZWInput{Text: []byte{0, 0, 0, 0}, Next: make([]int32, 3*lzwAlpha)}
	for i := range in2.Next {
		in2.Next[i] = -1
	}
	in2.Next[0] = 1        // root --0--> node1 (phrase "0")
	in2.Next[lzwAlpha] = 2 // node1 --0--> node2 (phrase "00")
	if got := RefLZWMatch(in2, 4); got != 2 {
		t.Fatalf("00|00 codes = %d", got)
	}
	// Chunk boundaries split matches: chunks of 2 still give two codes.
	if got := RefLZWMatch(in2, 2); got != 2 {
		t.Fatalf("chunked codes = %d", got)
	}
	// Chunks of 3 split a "00" match: 00|0 0 -> three codes.
	if got := RefLZWMatch(in2, 3); got != 3 {
		t.Fatalf("ragged chunk codes = %d", got)
	}
	// Empty text.
	if got := RefLZWMatch(&LZWInput{Next: in.Next}, 4); got != 0 {
		t.Fatalf("empty = %d", got)
	}
}

func TestLZWFunctionalMatchesReference(t *testing.T) {
	rng := RandFor(20, 0)
	in := GenLZW(rng, 256)
	base, err := LZWProgram(VariantComponent, capRound(len(in.Text)), capRound(len(in.Next)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := PatchLZW(base, in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.RunFunctional(p, 8, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := RefLZWMatch(in, LZWChunk)
	if len(m.Output) != 1 || m.Output[0] != want {
		t.Fatalf("output = %v, want %d", m.Output, want)
	}
}

func TestLZWTimingValidated(t *testing.T) {
	rng := RandFor(21, 1)
	in := GenLZW(rng, 512)
	res, err := RunLZW(in, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DivRequested == 0 {
		t.Fatal("LZW component version should probe")
	}
}

func TestThrottleTripsOnTinyWorkers(t *testing.T) {
	// The perceptron's multi-pass structure produces death bursts at each
	// pattern's end-game; the window monitor must trip there.
	rng := RandFor(22, 2)
	in := GenPerceptron(rng, 1024, 6, 1)
	on := cpu.SOMTConfig()
	r1, err := RunPerceptron(in, VariantComponent, on)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("throttle on: %d cycles, %d grants, %d throttle-denies",
		r1.Cycles, r1.Stats.DivGranted, r1.Stats.ThrottleDenies)
	if r1.Stats.ThrottleDenies == 0 {
		t.Fatalf("throttle never tripped: %+v", r1.Stats)
	}
}

func TestGenPerceptronShape(t *testing.T) {
	rng := RandFor(23, 0)
	in := GenPerceptron(rng, 100, 3, 2)
	if len(in.W0) != 100 || len(in.X) != 3 || len(in.X[0]) != 100 || len(in.Y) != 3 {
		t.Fatal("bad shapes")
	}
	for _, y := range in.Y {
		if y != 1 && y != -1 {
			t.Fatalf("bad target %d", y)
		}
	}
}

func TestRefPerceptronBounded(t *testing.T) {
	rng := RandFor(24, 1)
	in := GenPerceptron(rng, 64, 6, 3)
	_, m1 := RefPerceptron(in)
	if m1 < 0 || m1 > int64(in.Patterns*in.Epochs) {
		t.Fatalf("mistakes = %d", m1)
	}
}

func TestPerceptronFunctionalMatchesReference(t *testing.T) {
	rng := RandFor(25, 2)
	in := GenPerceptron(rng, 256, 2, 1)
	base, err := PerceptronProgram(VariantComponent, capRound(in.Neurons), in.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PatchPerceptron(base, in, capRound(in.Neurons))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.RunFunctional(p, 8, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	wantW, wantM := RefPerceptron(in)
	if len(m.Output) != 1 || m.Output[0] != wantM {
		t.Fatalf("mistakes = %v, want %d", m.Output, wantM)
	}
	for i := 0; i < in.Neurons; i++ {
		got, err := core.ReadWord(m.Mem, p, "g_w", i)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantW[i] {
			t.Fatalf("w[%d] = %d, want %d", i, got, wantW[i])
		}
	}
}

func TestPerceptronTimingValidated(t *testing.T) {
	rng := RandFor(26, 3)
	in := GenPerceptron(rng, 512, 2, 1)
	res, err := RunPerceptron(in, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DivRequested == 0 {
		t.Fatal("perceptron should probe")
	}
}

func TestFig7ShapeThrottleHelps(t *testing.T) {
	// The Fig. 7 claim: with tiny workers, throttled SOMT beats (or at
	// least matches) unthrottled SOMT on both LZW and Perceptron.
	rng := RandFor(27, 4)
	on := cpu.SOMTConfig()
	off := cpu.SOMTConfig()
	off.ThrottleOn = false

	lzwIn := GenLZW(rng, 4096) // the paper's N = 4096 characters
	l1, err := RunLZW(lzwIn, VariantComponent, on)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := RunLZW(lzwIn, VariantComponent, off)
	if err != nil {
		t.Fatal(err)
	}
	pin := GenPerceptron(rng, 2048, 2, 1)
	p1, err := RunPerceptron(pin, VariantComponent, on)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunPerceptron(pin, VariantComponent, off)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LZW: throttle on %d vs off %d cycles (grants %d vs %d); Perceptron: on %d vs off %d (grants %d vs %d)",
		l1.Cycles, l2.Cycles, l1.Stats.DivGranted, l2.Stats.DivGranted,
		p1.Cycles, p2.Cycles, p1.Stats.DivGranted, p2.Stats.DivGranted)
	if float64(l1.Cycles) > 1.05*float64(l2.Cycles) {
		t.Errorf("LZW throttling hurt: on=%d off=%d", l1.Cycles, l2.Cycles)
	}
	if float64(p1.Cycles) > 1.05*float64(p2.Cycles) {
		t.Errorf("Perceptron throttling hurt: on=%d off=%d", p1.Cycles, p2.Cycles)
	}
}
