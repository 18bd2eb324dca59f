package cpu_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workloads"
)

// quickSortMachine loads an n-element quicksort, ready to run.
func quickSortMachine(t *testing.T, variant workloads.Variant, cfg cpu.Config, n int) *cpu.Machine {
	t.Helper()
	list := workloads.GenList(rand.New(rand.NewSource(1)), workloads.ListUniform, n)
	base, err := workloads.QuickSortProgram(variant, n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workloads.PatchQuickSort(base, list)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStepSteadyStateAllocs pins the simulator's allocations. Entries,
// queues and scratch lists are reused, so once a superscalar machine has
// warmed up a cycle allocates nothing, and a whole SOMT run allocates in
// proportion to its divisions (each forks an emu.Thread, whose stack pages
// memory then creates). The simulator is single-goroutine and
// deterministic, so neither count depends on timing.
func TestStepSteadyStateAllocs(t *testing.T) {
	t.Run("superscalar", func(t *testing.T) {
		m := quickSortMachine(t, workloads.VariantImperative, cpu.SuperscalarConfig(), 1024)
		step := func(n int) {
			for range n {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		step(10_000)
		// One block per AllocsPerRun keeps the count exact: it divides the
		// total by the number of runs.
		for block := range 20 {
			if a := testing.AllocsPerRun(1, func() { step(1_000) }); a != 0 {
				t.Fatalf("block %d: %v allocations in 1000 cycles", block, a)
			}
		}
		if m.Halted() {
			t.Fatal("the program halted inside the measured blocks; give it a larger input")
		}
	})
	t.Run("somt", func(t *testing.T) {
		m := quickSortMachine(t, workloads.VariantComponent, cpu.SOMTConfig(), 1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		s := m.Stats()
		allocs := after.Mallocs - before.Mallocs
		if s.DivGranted == 0 || allocs > 2*s.DivGranted {
			t.Fatalf("%d allocations for %d divisions (%d instructions)", allocs, s.DivGranted, s.Insts)
		}
	})
}
