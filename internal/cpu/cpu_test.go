package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/prog"
)

func assemble(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(asm.Unit{Name: "t.s", Text: src})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func runOn(t *testing.T, p *prog.Program, cfg Config) *Machine {
	t.Helper()
	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run (%s): %v", cfg.Name, err)
	}
	return m
}

const sumLoop = `
main:
	li a0, 0
	li a1, 1
	li a2, 1000
loop:
	add a0, a0, a1
	addi a1, a1, 1
	ble a1, a2, loop
	print a0
	halt
`

func TestSuperscalarRunsSequentialCode(t *testing.T) {
	p := assemble(t, sumLoop)
	m := runOn(t, p, SuperscalarConfig())
	if len(m.Output) != 1 || m.Output[0] != 500500 {
		t.Fatalf("output = %v", m.Output)
	}
	s := m.Stats()
	if s.Cycles == 0 || s.Insts == 0 {
		t.Fatal("no cycles/insts recorded")
	}
	// ~3 insts per iteration with a predictable branch on a superscalar:
	// IPC should be well above 0.5 and cycles far below insts*10.
	if s.IPC() < 0.5 {
		t.Fatalf("suspiciously low IPC %.3f (cycles=%d insts=%d)", s.IPC(), s.Cycles, s.Insts)
	}
}

func TestConfigValidation(t *testing.T) {
	p := assemble(t, "main:\n\thalt\n")
	for name, spoil := range map[string]func(*Config){
		"no contexts":         func(c *Config) { c.Contexts = 0 },
		"negative L1D hit":    func(c *Config) { c.Hierarchy.L1D.HitCycles = -1 },
		"negative memory":     func(c *Config) { c.Hierarchy.MemoryCycles = -1 },
		"no data cache ports": func(c *Config) { c.Hierarchy.DataPorts = 0 },
	} {
		bad := SOMTConfig()
		spoil(&bad)
		if _, err := New(p, bad); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
	free := SOMTConfig()
	free.Hierarchy.L1D.HitCycles = 0
	free.Hierarchy.MemoryCycles = 0
	if _, err := New(p, free); err != nil {
		t.Errorf("zero-latency memory rejected: %v", err)
	}
}

// divisionProgram divides once, both workers bump a locked counter, the
// parent joins and prints.
const divisionProgram = `
.data
counter:
	.word 0
.text
main:
	nthr t0
	li t1, -1
	beq t0, t1, seq
	bnez t0, child
	jal ra, bump
	join
	j report
child:
	jal ra, bump
	kthr
seq:
	jal ra, bump
	jal ra, bump
report:
	la a0, counter
	ld a1, 0(a0)
	print a1
	halt
bump:
	la t2, counter
	mlock t2
	ld t3, 0(t2)
	addi t3, t3, 1
	sd t3, 0(t2)
	munlock t2
	ret
`

func TestSOMTDivision(t *testing.T) {
	p := assemble(t, divisionProgram)
	m := runOn(t, p, SOMTConfig())
	if len(m.Output) != 1 || m.Output[0] != 2 {
		t.Fatalf("output = %v", m.Output)
	}
	s := m.Stats()
	if s.DivRequested != 1 || s.DivGranted != 1 {
		t.Fatalf("div stats: %+v", s)
	}
	if s.Deaths != 1 {
		t.Fatalf("deaths = %d", s.Deaths)
	}
}

func TestSMTDeniesDivision(t *testing.T) {
	p := assemble(t, divisionProgram)
	m := runOn(t, p, SMTConfig())
	if len(m.Output) != 1 || m.Output[0] != 2 {
		t.Fatalf("sequential fallback output = %v", m.Output)
	}
	s := m.Stats()
	if s.DivGranted != 0 || s.DivRequested != 1 {
		t.Fatalf("div stats: %+v", s)
	}
}

func TestSuperscalarSingleContextDeniesDivision(t *testing.T) {
	p := assemble(t, divisionProgram)
	m := runOn(t, p, SuperscalarConfig())
	if m.Output[0] != 2 {
		t.Fatalf("output = %v", m.Output)
	}
}

// fanout builds a wide group: main spawns children in a loop; each child
// spins then dies; main joins.
const fanoutProgram = `
.data
acc:
	.word 0
.text
main:
	li s0, 12          # spawn attempts
spawnloop:
	nthr t0
	li t1, -1
	beq t0, t1, nospawn
	bnez t0, child
	j next             # parent continues
child:
	li t2, 40          # busy work
spin:
	addi t2, t2, -1
	bnez t2, spin
	la t3, acc
	mlock t3
	ld t4, 0(t3)
	addi t4, t4, 1
	sd t4, 0(t3)
	munlock t3
	kthr
nospawn:
	la t3, acc
	mlock t3
	ld t4, 0(t3)
	addi t4, t4, 1
	sd t4, 0(t3)
	munlock t3
next:
	addi s0, s0, -1
	bnez s0, spawnloop
	join
	la a0, acc
	ld a1, 0(a0)
	print a1
	halt
`

func TestFanoutAllWorkersCounted(t *testing.T) {
	p := assemble(t, fanoutProgram)
	m := runOn(t, p, SOMTConfig())
	if len(m.Output) != 1 || m.Output[0] != 12 {
		t.Fatalf("output = %v", m.Output)
	}
	s := m.Stats()
	if s.DivGranted == 0 {
		t.Fatal("expected divisions on SOMT")
	}
	if s.DivGranted != s.Deaths {
		t.Fatalf("granted=%d deaths=%d should match", s.DivGranted, s.Deaths)
	}
	if s.PeakLiveThreads < 2 {
		t.Fatalf("peak live = %d", s.PeakLiveThreads)
	}
}

// TestGoldenModelEquivalence: the timing machine must produce the same
// architectural output as the functional machine for the same program.
func TestGoldenModelEquivalence(t *testing.T) {
	programs := []string{sumLoop, divisionProgram, fanoutProgram}
	for i, src := range programs {
		p := assemble(t, src)
		fm := emu.NewMachine(p, 8)
		if err := fm.Run(10_000_000); err != nil {
			t.Fatalf("prog %d functional: %v", i, err)
		}
		tm := runOn(t, p, SOMTConfig())
		if len(fm.Output) != len(tm.Output) {
			t.Fatalf("prog %d output lengths differ: functional %v vs timing %v", i, fm.Output, tm.Output)
		}
		for j := range fm.Output {
			if fm.Output[j] != tm.Output[j] {
				t.Fatalf("prog %d output[%d]: functional %d vs timing %d", i, j, fm.Output[j], tm.Output[j])
			}
		}
	}
}

func TestDivisionTrace(t *testing.T) {
	p := assemble(t, fanoutProgram)
	m, err := New(p, SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Divisions) == 0 {
		t.Fatal("no division events traced")
	}
	for _, d := range m.Divisions {
		if d.Child == d.Parent || d.Child == 0 {
			t.Fatalf("bad division event %+v", d)
		}
	}
	if uint64(len(m.Divisions)) != m.Stats().DivGranted {
		t.Fatalf("trace length %d != granted %d", len(m.Divisions), m.Stats().DivGranted)
	}
}

func TestThrottleDeniesRapidDeaths(t *testing.T) {
	// Tiny workers that die almost immediately: with throttling on, the
	// death window should deny a chunk of divisions.
	src := `
main:
	li s0, 200
loop:
	nthr t0
	li t1, -1
	beq t0, t1, next
	bnez t0, child
	j next
child:
	kthr
next:
	addi s0, s0, -1
	bnez s0, loop
	join
	halt
`
	p := assemble(t, src)
	on := SOMTConfig()
	m1 := runOn(t, p, on)
	off := SOMTConfig()
	off.ThrottleOn = false
	m2 := runOn(t, p, off)
	s1, s2 := m1.Stats(), m2.Stats()
	if s1.ThrottleDenies == 0 {
		t.Fatalf("expected throttle denies, got %+v", s1)
	}
	if s2.ThrottleDenies != 0 {
		t.Fatalf("throttle off must not deny: %+v", s2)
	}
	if s1.DivGranted >= s2.DivGranted {
		t.Fatalf("throttle should reduce grants: on=%d off=%d", s1.DivGranted, s2.DivGranted)
	}
}

func TestStaticPolicyFreezesAfterSaturation(t *testing.T) {
	p := assemble(t, fanoutProgram)
	cfg := SMTStaticConfig()
	m := runOn(t, p, cfg)
	if m.Output[0] != 12 {
		t.Fatalf("output = %v", m.Output)
	}
	s := m.Stats()
	// At most Contexts-1 grants (saturation) and then frozen.
	if s.DivGranted == 0 || s.DivGranted > uint64(cfg.Contexts) {
		t.Fatalf("static grants = %d", s.DivGranted)
	}
}

func TestLockContentionSerialises(t *testing.T) {
	// Two workers hammer the same locked counter; the total must be exact
	// (no lost updates), and lock stalls must be observed.
	src := `
.data
acc:
	.word 0
.text
main:
	nthr t0
	li t1, -1
	beq t0, t1, seq
	bnez t0, child
	jal ra, work
	join
	j report
child:
	jal ra, work
	kthr
seq:
	jal ra, work
	jal ra, work
report:
	la a0, acc
	ld a1, 0(a0)
	print a1
	halt
work:
	li s1, 100
	la s2, acc
wloop:
	mlock s2
	ld t3, 0(s2)
	addi t3, t3, 1
	sd t3, 0(s2)
	munlock s2
	addi s1, s1, -1
	bnez s1, wloop
	ret
`
	p := assemble(t, src)
	m := runOn(t, p, SOMTConfig())
	if m.Output[0] != 200 {
		t.Fatalf("acc = %v", m.Output)
	}
	s := m.Stats()
	if s.LockAcquires == 0 {
		t.Fatal("no lock acquires recorded")
	}
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// A data-dependent unpredictable branch stream vs a fixed one: the
	// unpredictable version must take more cycles for the same inst count.
	predictable := `
main:
	li s0, 3000
	li s1, 0
loop:
	addi s0, s0, -1
	addi s1, s1, 1
	bnez s0, loop
	print s1
	halt
`
	// xorshift-ish branch direction flips pseudo-randomly.
	unpredictable := `
main:
	li s0, 3000
	li s1, 12345
	li s3, 0
loop:
	slli t0, s1, 13
	xor s1, s1, t0
	srli t0, s1, 7
	xor s1, s1, t0
	slli t0, s1, 17
	xor s1, s1, t0
	andi t1, s1, 1
	beqz t1, skip
	addi s3, s3, 1
skip:
	addi s0, s0, -1
	bnez s0, loop
	print s3
	halt
`
	p1 := assemble(t, predictable)
	p2 := assemble(t, unpredictable)
	m1 := runOn(t, p1, SuperscalarConfig())
	m2 := runOn(t, p2, SuperscalarConfig())
	s1, s2 := m1.Stats(), m2.Stats()
	if s2.MispredictedBranches < 500 {
		t.Fatalf("expected many mispredicts, got %d", s2.MispredictedBranches)
	}
	cpi1 := float64(s1.Cycles) / float64(s1.Insts)
	cpi2 := float64(s2.Cycles) / float64(s2.Insts)
	if cpi2 <= cpi1 {
		t.Fatalf("mispredicts should raise CPI: predictable %.3f vs random %.3f", cpi1, cpi2)
	}
}

func TestCacheMissesSlowLoads(t *testing.T) {
	// Striding through a large array (cold misses) vs re-reading one word.
	cold := `
.data
base:
	.word 0
.text
main:
	li s0, 2000
	li s1, 0x400000
loop:
	ld t0, 0(s1)
	addi s1, s1, 512
	addi s0, s0, -1
	bnez s0, loop
	halt
`
	warm := `
.data
one:
	.word 7
.text
main:
	li s0, 2000
	la s1, one
loop:
	ld t0, 0(s1)
	addi s0, s0, -1
	bnez s0, loop
	halt
`
	mc := runOn(t, assemble(t, cold), SuperscalarConfig())
	mw := runOn(t, assemble(t, warm), SuperscalarConfig())
	if mc.Stats().Cycles <= 2*mw.Stats().Cycles {
		t.Fatalf("cold strides should be much slower: cold=%d warm=%d",
			mc.Stats().Cycles, mw.Stats().Cycles)
	}
	if mc.Stats().L1D.Misses < 1900 {
		t.Fatalf("expected ~2000 L1D misses, got %d", mc.Stats().L1D.Misses)
	}
}

func TestDivisionLatencyKnob(t *testing.T) {
	p := assemble(t, fanoutProgram)
	fast := SOMTConfig()
	slow := SOMTConfig()
	slow.DivExtraCycles = 200
	m1 := runOn(t, p, fast)
	m2 := runOn(t, p, slow)
	if m1.Output[0] != 12 || m2.Output[0] != 12 {
		t.Fatal("wrong results")
	}
	// Results must stay correct; cycle counts may differ but not wildly
	// (the paper reports <1% on real workloads; this tiny kernel just
	// checks the knob is wired).
	if m2.Stats().Cycles < m1.Stats().Cycles {
		t.Logf("note: slow-division run was faster (%d vs %d); acceptable on tiny kernels",
			m2.Stats().Cycles, m1.Stats().Cycles)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A thread locks an address twice without unlocking... mlock is
	// idempotent for the owner, so instead: two threads lock two addresses
	// in opposite orders -> classic deadlock; the simulator must report it
	// rather than hang.
	src := `
.data
la1:
	.word 0
la2:
	.word 0
.text
main:
	nthr t0
	li t1, -1
	beq t0, t1, give_up
	bnez t0, child
	la s0, la1
	la s1, la2
	mlock s0
	li t2, 200
d1:
	addi t2, t2, -1
	bnez t2, d1
	mlock s1
	munlock s1
	munlock s0
	join
	halt
child:
	la s0, la1
	la s1, la2
	mlock s1
	li t2, 200
d2:
	addi t2, t2, -1
	bnez t2, d2
	mlock s0
	munlock s0
	munlock s1
	kthr
give_up:
	halt
`
	p := assemble(t, src)
	cfg := SOMTConfig()
	cfg.SwapOn = false // keep the rescue path out of the picture
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	if err == nil {
		t.Fatal("deadlock not detected")
	}
}

// TestStoreToLoadForwarding pins when a load takes its value from the
// store buffer instead of the D-cache: only from an older in-flight store
// of its own context to the same 8-byte word. Every committed store and
// every load that does not forward accesses the L1D once, so the access
// count drops by exactly the forwarded loads. The superscalar programs fit
// one 8-instruction fetch line, so no I-cache miss lets a store retire
// before the loads after it issue.
func TestStoreToLoadForwarding(t *testing.T) {
	const data = `
.data
buf:
	.word 0
	.word 0
.text
main:
	la s0, buf
	li t0, 7
`
	for _, tc := range []struct {
		name     string
		cfg      Config
		code     string
		accesses uint64 // stores + loads that did not forward
	}{
		{"same word", SuperscalarConfig(), `
	sd t0, 0(s0)
	ld t1, 0(s0)
	sb t0, 0(s0)
	lb t2, 3(s0)
	halt
`, 2},
		{"other word", SuperscalarConfig(), `
	sd t0, 8(s0)
	ld t1, 0(s0)
	sb t0, 8(s0)
	lb t2, 3(s0)
	halt
`, 4},
		{"younger store", SuperscalarConfig(), `
	ld t1, 0(s0)
	lb t2, 3(s0)
	sd t0, 0(s0)
	sb t0, 0(s0)
	halt
`, 4},
		// The parent's store waits behind three chained loads that miss to
		// memory, so it is still in flight while the child loads its word.
		{"sibling store", SOMTConfig(), `
	li s1, 0x400000
	nthr t0
	li t1, -1
	beq t0, t1, done
	bnez t0, child
	ld t2, 0(s1)
	add t3, s1, t2
	ld t2, 512(t3)
	add t3, t3, t2
	ld t2, 1024(t3)
	sd t2, 0(s0)
	join
done:
	halt
child:
	ld t3, 0(s0)
	ld t3, 0(s0)
	ld t3, 0(s0)
	ld t3, 0(s0)
	kthr
`, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := runOn(t, assemble(t, data+tc.code), tc.cfg)
			s := m.Stats()
			if tc.cfg.Contexts > 1 && s.DivGranted != 1 {
				t.Fatalf("division not granted: %+v", s)
			}
			if s.L1D.Accesses != tc.accesses {
				t.Errorf("L1D accesses = %d, want %d", s.L1D.Accesses, tc.accesses)
			}
		})
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := Stats{Cycles: 100, Insts: 250, DivRequested: 10, DivGranted: 5}
	if s.IPC() != 2.5 {
		t.Fatalf("IPC = %v", s.IPC())
	}
	if s.DivGrantRate() != 0.5 {
		t.Fatalf("grant rate = %v", s.DivGrantRate())
	}
	if s.InstsPerDivision() != 50 {
		t.Fatalf("insts/div = %v", s.InstsPerDivision())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.DivGrantRate() != 0 || zero.InstsPerDivision() != 0 || zero.AvgActiveContexts() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}
