package workloads

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cpu"
)

func TestGenListKinds(t *testing.T) {
	rng := RandFor(10, 0)
	for k := ListKind(0); k < numListKinds; k++ {
		l := GenList(rng, k, 100)
		if len(l) != 100 {
			t.Fatalf("%v: wrong length", k)
		}
	}
	// Sorted really is sorted; reverse really descends.
	s := GenList(rng, ListSorted, 50)
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Fatal("sorted kind not sorted")
	}
	r := GenList(rng, ListReverse, 50)
	if !sort.SliceIsSorted(r, func(i, j int) bool { return r[i] > r[j] }) {
		t.Fatal("reverse kind not descending")
	}
	// Few-unique has few uniques.
	f := GenList(rng, ListFewUnique, 200)
	uniq := map[int64]bool{}
	for _, v := range f {
		uniq[v] = true
	}
	if len(uniq) > 8 {
		t.Fatalf("few-unique has %d distinct values", len(uniq))
	}
}

func TestQuickSortFunctionalProperty(t *testing.T) {
	// Property test: the component program sorts arbitrary small arrays on
	// the functional machine.
	base, err := QuickSortProgram(VariantComponent, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []int16) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		list := make([]int64, len(raw))
		for i, v := range raw {
			list[i] = int64(v)
		}
		if len(list) == 0 {
			return true
		}
		p, err := PatchQuickSort(base, list)
		if err != nil {
			return false
		}
		m, err := core.RunFunctional(p, 8, 100_000_000)
		if err != nil {
			return false
		}
		want := append([]int64(nil), list...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			got, err := core.ReadWord(m.Mem, p, "g_arr", i)
			if err != nil || got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSortTimingAllKinds(t *testing.T) {
	rng := RandFor(11, 3)
	for k := ListKind(0); k < numListKinds; k++ {
		list := GenList(rng, k, 120)
		if _, err := RunQuickSort(list, VariantComponent, cpu.SOMTConfig()); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestQuickSortImperativeOnSuperscalar(t *testing.T) {
	rng := RandFor(12, 0)
	list := GenList(rng, ListUniform, 200)
	res, err := RunQuickSort(list, VariantImperative, cpu.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DivRequested != 0 {
		t.Fatal("imperative variant must not probe")
	}
}

func TestQuickSortDivisionTreeIrregular(t *testing.T) {
	rng := RandFor(13, 1)
	list := GenList(rng, ListUniform, 400)
	res, err := RunQuickSortTraced(list, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divisions) < 3 {
		t.Fatalf("expected several divisions, got %d", len(res.Divisions))
	}
	// The tree must be a tree: every child appears exactly once, parents
	// precede children.
	seen := map[int]bool{0: true}
	for _, d := range res.Divisions {
		if seen[d.Child] {
			t.Fatalf("child %d created twice", d.Child)
		}
		if !seen[d.Parent] {
			t.Fatalf("parent %d unseen before child %d", d.Parent, d.Child)
		}
		seen[d.Child] = true
	}
}

func TestQuickSortSOMTBeatsSuperscalarOnUniform(t *testing.T) {
	rng := RandFor(14, 2)
	list := GenList(rng, ListUniform, 600)
	ss, err := RunQuickSort(list, VariantImperative, cpu.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	so, err := RunQuickSort(list, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if so.Cycles >= ss.Cycles {
		t.Fatalf("SOMT (%d cycles) should beat superscalar (%d cycles) on n=600", so.Cycles, ss.Cycles)
	}
	t.Logf("speedup %.2f", float64(ss.Cycles)/float64(so.Cycles))
}
