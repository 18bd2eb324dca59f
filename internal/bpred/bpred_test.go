package bpred

import (
	"math/rand"
	"testing"
)

func TestAlwaysTakenLearns(t *testing.T) {
	p := New(Default())
	pc := uint64(0x400)
	for i := 0; i < 100; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Fatal("should predict taken after 100 taken outcomes")
	}
	if acc := p.Stats().Accuracy(); acc < 0.9 {
		t.Fatalf("accuracy %v too low for a monotone branch", acc)
	}
}

func TestAlternatingPatternLearnedByTwoLevel(t *testing.T) {
	p := New(Default())
	pc := uint64(0x800)
	correct := 0
	n := 2000
	for i := 0; i < n; i++ {
		outcome := i%2 == 0
		if p.Predict(pc) == outcome {
			correct++
		}
		p.Update(pc, outcome)
	}
	// The gAp component captures the T/NT alternation; the last half of the
	// run should be near-perfect. Bimodal alone would sit near 50%.
	if frac := float64(correct) / float64(n); frac < 0.85 {
		t.Fatalf("alternating accuracy %v; two-level predictor should learn it", frac)
	}
}

func TestLoopExitPattern(t *testing.T) {
	p := New(Default())
	pc := uint64(0x900)
	correct, total := 0, 0
	// 8 iterations taken, then one not-taken exit, repeated.
	for rep := 0; rep < 300; rep++ {
		for i := 0; i < 9; i++ {
			outcome := i < 8
			if p.Predict(pc) == outcome {
				correct++
			}
			total++
			p.Update(pc, outcome)
		}
	}
	if frac := float64(correct) / float64(total); frac < 0.9 {
		t.Fatalf("loop pattern accuracy %v", frac)
	}
}

func TestIndependentBranchesDoNotDestroyEachOther(t *testing.T) {
	p := New(Default())
	// Two branches with opposite biases at PCs mapping to different bimodal
	// slots must both be predictable.
	a, b := uint64(0x1000), uint64(0x1001)
	for i := 0; i < 500; i++ {
		p.Update(a, true)
		p.Update(b, false)
	}
	if !p.Predict(a) || p.Predict(b) {
		t.Fatal("opposite-biased branches should both be learned")
	}
}

func TestStatsCounting(t *testing.T) {
	p := New(Default())
	for i := 0; i < 10; i++ {
		p.Update(42, true)
	}
	s := p.Stats()
	if s.Lookups != 10 {
		t.Fatalf("lookups = %d", s.Lookups)
	}
	if s.Correct == 0 || s.Correct > 10 {
		t.Fatalf("correct = %d", s.Correct)
	}
}

func TestRandomBranchesBounded(t *testing.T) {
	p := New(Default())
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		p.Update(uint64(r.Intn(256)), r.Intn(2) == 0)
	}
	acc := p.Stats().Accuracy()
	if acc < 0.3 || acc > 0.7 {
		t.Fatalf("random-branch accuracy %v should be near 0.5", acc)
	}
}

func TestConfigRoundingToPowerOfTwo(t *testing.T) {
	p := New(Config{BimodalEntries: 1000, MetaEntries: 3, PatternEntries: 5000, HistoryEntries: 100, HistoryBits: 10})
	if len(p.bimodal) != 1024 || len(p.meta) != 4 || len(p.pattern) != 8192 || len(p.history) != 128 {
		t.Fatalf("sizes = %d %d %d %d", len(p.bimodal), len(p.meta), len(p.pattern), len(p.history))
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	r.Push(10)
	r.Push(20)
	if a, ok := r.Pop(); !ok || a != 20 {
		t.Fatalf("pop = %d, %v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 10 {
		t.Fatalf("pop = %d, %v", a, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty RAS should report not-ok")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if a, _ := r.Pop(); a != 3 {
		t.Fatalf("got %d", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Fatalf("got %d", a)
	}
}

func TestRASClone(t *testing.T) {
	r := NewRAS(4)
	r.Push(7)
	c := r.Clone()
	r.Pop()
	if a, ok := c.Pop(); !ok || a != 7 {
		t.Fatal("clone must be independent")
	}
}

func TestRASCopyFromReusesStorage(t *testing.T) {
	src, dst := NewRAS(4), NewRAS(4)
	src.Push(7)
	dst.Push(1)
	dst.Push(2)
	if n := testing.AllocsPerRun(10, func() { dst.CopyFrom(src) }); n != 0 {
		t.Fatalf("CopyFrom between equal depths allocated %v times", n)
	}
	src.Pop()
	if a, ok := dst.Pop(); !ok || a != 7 {
		t.Fatal("copy must be independent of its source")
	}
	if _, ok := dst.Pop(); ok {
		t.Fatal("copy must take the source's depth, not keep its own")
	}
}
