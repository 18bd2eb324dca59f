package cpu

import (
	"repro/internal/emu"
)

// The Machine implements emu.Kernel: the execute-ahead engine consults the
// hardware's division, lock-table and group state when it architecturally
// executes nthr/kthr/mlock/munlock/tcnt/join.

var _ emu.Kernel = (*Machine)(nil)

// RequestDivision implements the paper's division strategy: an nthr is
// executed if a hardware context is free and (when throttling is on) the
// number of deaths in the last DeathWindow cycles stays below half the
// context count; otherwise it is treated as a nop and the probe fails.
func (m *Machine) RequestDivision(parent *emu.Thread) (*emu.Thread, bool) {
	m.stats.DivRequested++
	if m.cfg.DivisionPolicy == PolicyDeny {
		return nil, false
	}
	if m.cfg.DivisionPolicy == PolicyStatic && m.staticFrozen {
		return nil, false
	}
	var free *context
	occupied := 0
	for _, c := range m.contexts {
		if c.state == ctxFree {
			if free == nil {
				free = c
			}
		} else {
			occupied++
		}
	}
	if free == nil {
		m.stats.NoCtxDenies++
		return nil, false
	}
	if m.cfg.ThrottleOn && m.deathsInWindow() >= m.cfg.Contexts/2 {
		m.stats.ThrottleDenies++
		return nil, false
	}

	child := parent.Fork(m.nextTID)
	m.nextTID++
	m.lockBlocked = append(m.lockBlocked, false)
	m.stats.TotalThreads++
	m.groups[child.Group]++
	m.stats.DivGranted++

	// Seize the context now (decode-time reservation); it activates when
	// the parent's nthr commits and the register copy completes.
	free.state = ctxStall
	free.divPending = true
	free.thread = child
	free.ras.CopyFrom(m.ctxOfThread(parent).ras)
	free.icount = 0

	if m.cfg.DivisionPolicy == PolicyStatic && occupied+1 >= m.cfg.Contexts {
		// Saturation reached once: freeze further divisions (the static
		// schedule never rebalances).
		m.staticFrozen = true
	}
	m.Divisions = append(m.Divisions, DivisionEvent{Cycle: m.cycle, Parent: parent.ID, Child: child.ID, PC: parent.PC})
	return child, true
}

// ThreadExit is called when a worker architecturally executes kthr. Context
// deallocation and death accounting happen later, at the kthr's commit.
func (m *Machine) ThreadExit(t *emu.Thread) {
	m.groups[t.Group]--
}

// TryLock implements the locking table (Section 3.1, after Tullsen's
// fine-grain synchronisation): idempotent for the owner; losers are queued
// and their thread stalls.
func (m *Machine) TryLock(t *emu.Thread, addr uint64) bool {
	ls := m.locks[addr]
	if ls == nil {
		ls = &lockEntry{}
		m.locks[addr] = ls
	}
	if ls.owner == nil {
		ls.owner = t
		m.stats.LockAcquires++
		return true
	}
	if ls.owner == t {
		return true
	}
	for _, w := range ls.waiters {
		if w == t {
			return false
		}
	}
	ls.waiters = append(ls.waiters, t)
	return false
}

// Unlock releases the lock, transferring ownership to the oldest waiter and
// waking it.
func (m *Machine) Unlock(t *emu.Thread, addr uint64) {
	ls := m.locks[addr]
	if ls == nil || ls.owner != t {
		return // releasing an unheld lock: hardware finds no entry
	}
	if len(ls.waiters) == 0 {
		ls.owner = nil
		return
	}
	next := ls.waiters[0]
	ls.waiters = ls.waiters[:copy(ls.waiters, ls.waiters[1:])]
	ls.owner = next
	m.stats.LockAcquires++
	m.lockBlocked[next.ID] = false
	// The woken thread's context resumes fetching and will re-execute its
	// mlock, which now finds itself the owner.
	if c := m.ctxOfThread(next); c != nil {
		c.blockedSince = 0
	}
}

// GroupLive returns the live worker count of t's group.
func (m *Machine) GroupLive(t *emu.Thread) int64 { return m.groups[t.Group] }

// Halt records the architectural halt; the machine stops when it commits.
func (m *Machine) Halt(*emu.Thread) {
	// haltSeen is set by the fetch stage, which also stops fetching; the
	// actual stop happens when the halt entry retires.
}

// Print accumulates debug output with its cycle stamp.
func (m *Machine) Print(_ *emu.Thread, v int64) {
	m.Output = append(m.Output, v)
	m.OutputCycles = append(m.OutputCycles, m.cycle)
}
