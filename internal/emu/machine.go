package emu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/prog"
)

// Machine is the pure-functional multi-worker runner: no timing, division
// always granted while fewer than MaxThreads workers are live, round-robin
// interleaving at instruction granularity. It is the golden model the
// timing simulator is checked against, and a fast way to validate CapC
// programs.
type Machine struct {
	Prog *prog.Program
	Mem  *mem.Memory
	// MaxThreads bounds concurrently live workers (division is denied at
	// the bound, exactly like running out of hardware contexts).
	MaxThreads int

	threads []*Thread
	nextID  int
	groups  map[int]int64
	locks   map[uint64]*lockState
	halted  bool

	// Output accumulates values from the print instruction, in execution
	// order.
	Output []int64

	// Statistics.
	Steps       uint64
	DivGranted  uint64
	DivDenied   uint64
	ThreadsMade int
}

type lockState struct {
	owner   int
	waiters []int // FIFO; the paper's table wakes the oldest waiter
}

// NewMachine loads p's data image into a fresh memory and creates the
// ancestor thread at the entry point with the main stack.
func NewMachine(p *prog.Program, maxThreads int) *Machine {
	m := mem.NewMemory()
	m.StoreBytes(prog.DataBase, p.Data)
	mach := &Machine{
		Prog:       p,
		Mem:        m,
		MaxThreads: maxThreads,
		groups:     make(map[int]int64),
		locks:      make(map[uint64]*lockState),
	}
	t := &Thread{ID: 0, Group: 0, PC: p.Entry}
	t.Regs[30] = int64(prog.MainStackTop) // sp
	mach.threads = []*Thread{t}
	mach.nextID = 1
	mach.ThreadsMade = 1
	mach.groups[0] = 1
	return mach
}

// Kernel implementation -----------------------------------------------------

// RequestDivision grants while fewer than MaxThreads workers are live.
func (ma *Machine) RequestDivision(parent *Thread) (*Thread, bool) {
	live := 0
	for _, t := range ma.threads {
		if !t.Dead {
			live++
		}
	}
	if live >= ma.MaxThreads {
		ma.DivDenied++
		return nil, false
	}
	child := parent.Fork(ma.nextID)
	ma.nextID++
	ma.ThreadsMade++
	ma.threads = append(ma.threads, child)
	ma.groups[child.Group]++
	ma.DivGranted++
	return child, true
}

// ThreadExit removes t from its group's live count.
func (ma *Machine) ThreadExit(t *Thread) {
	ma.groups[t.Group]--
}

// TryLock implements the locking table functionally.
func (ma *Machine) TryLock(t *Thread, addr uint64) bool {
	ls := ma.locks[addr]
	if ls == nil {
		ma.locks[addr] = &lockState{owner: t.ID}
		return true
	}
	if ls.owner == t.ID {
		return true
	}
	for _, w := range ls.waiters {
		if w == t.ID {
			return false
		}
	}
	ls.waiters = append(ls.waiters, t.ID)
	return false
}

// Unlock transfers ownership to the oldest waiter, or frees the entry.
func (ma *Machine) Unlock(t *Thread, addr uint64) {
	ls := ma.locks[addr]
	if ls == nil || ls.owner != t.ID {
		// Releasing a lock you do not hold is a program bug; treat as
		// no-op (the hardware would also find no matching entry).
		return
	}
	if len(ls.waiters) == 0 {
		delete(ma.locks, addr)
		return
	}
	ls.owner = ls.waiters[0]
	ls.waiters = ls.waiters[1:]
}

// GroupLive returns the live count of t's group.
func (ma *Machine) GroupLive(t *Thread) int64 { return ma.groups[t.Group] }

// Halt stops the machine.
func (ma *Machine) Halt(*Thread) { ma.halted = true }

// Print appends to Output.
func (ma *Machine) Print(_ *Thread, v int64) { ma.Output = append(ma.Output, v) }

// ----------------------------------------------------------------------------

// Halted reports whether the program executed halt.
func (ma *Machine) Halted() bool { return ma.halted }

// LiveThreads returns the current number of live workers.
func (ma *Machine) LiveThreads() int {
	n := 0
	for _, t := range ma.threads {
		if !t.Dead {
			n++
		}
	}
	return n
}

// Run interleaves all live workers round-robin, one instruction each per
// round, until halt. It fails if maxSteps is exceeded or if every live
// worker is blocked (deadlock).
func (ma *Machine) Run(maxSteps uint64) error {
	var info StepInfo
	for !ma.halted {
		progress := false
		// Iterate over a snapshot: divisions append new threads which
		// start running next round.
		snapshot := ma.threads
		for _, t := range snapshot {
			if t.Dead || ma.halted {
				continue
			}
			st, err := Step(ma.Prog, ma.Mem, ma, t, &info)
			if err != nil {
				return err
			}
			if st != StatusBlocked {
				progress = true
				ma.Steps++
			}
			if ma.Steps > maxSteps {
				return fmt.Errorf("emu: exceeded step budget %d (live=%d)", maxSteps, ma.LiveThreads())
			}
		}
		if !progress && !ma.halted {
			return fmt.Errorf("emu: deadlock: %d live workers all blocked", ma.LiveThreads())
		}
		ma.compact()
	}
	return nil
}

func (ma *Machine) compact() {
	alive := ma.threads[:0]
	for _, t := range ma.threads {
		if !t.Dead {
			alive = append(alive, t)
		}
	}
	ma.threads = alive
}
