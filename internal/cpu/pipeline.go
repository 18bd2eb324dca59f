package cpu

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// ctxState is a hardware context's state (Section 3.1: free, active, stall).
type ctxState uint8

const (
	ctxFree ctxState = iota
	ctxActive
	ctxStall
)

// context is one hardware thread context.
type context struct {
	id     int
	state  ctxState
	thread *emu.Thread
	ras    *bpred.RAS

	icount int // in-flight instructions (fetch queue + RUU), drives ICOUNT

	// Fetch blockers.
	fetchBlockedUntil uint64    // I-cache miss / register copy / swap-in
	blockedOnBranch   *ruuEntry // mispredict: resolve before refetch
	joinWaiting       bool      // stalled on join
	blockedSince      uint64    // first cycle of the current lock/join block

	// Lifecycle.
	dying      bool // kthr fetched; context frees when it commits
	divPending bool // seized by an in-flight nthr, activates at its commit
	evicting   bool // swap-out in progress (drain, then copy out)
	evictAt    uint64

	// Swap policy state.
	loadCounter int

	// In-order lists of this context's in-flight entries and, of those,
	// its stores (commit order).
	entries entryRing
	stores  entryRing

	// lastWriter is the rename table: the youngest in-flight entry writing
	// each register, indexed by (FP file, register number).
	lastWriter [2][max(isa.NumIntRegs, isa.NumFPRegs)]*ruuEntry
}

// writer returns r's rename-table slot.
func (c *context) writer(r isa.RegRef) **ruuEntry {
	file := 0
	if r.FP {
		file = 1
	}
	return &c.lastWriter[file][r.Reg]
}

// ruuEntry is one in-flight instruction in the register update unit.
type ruuEntry struct {
	seq     uint64
	ctx     *context
	inst    *isa.Inst // into the program's text, which a run never changes
	ops     *operands // inst's register operands, decoded once by New
	memAddr uint64    // loads and stores

	// Register dependences. Each entry heads the list of entries waiting
	// on it, threaded through the waiters' own source links, so wiring a
	// dependence never allocates.
	deps     int // outstanding register producers
	firstDep depLink
	nextDep  [maxSources]depLink // this entry's link, per source, in its producer's list

	inRUU     bool // dispatched (occupies an RUU slot; LSQ too if memory op)
	issued    bool
	completed bool
	latCycles int
	readyAt   uint64    // completion (writeback) cycle once issued
	nextDue   *ruuEntry // next issued entry in the same wheel slot

	isLoad, isStore bool
	mispredicted    bool

	// Division bookkeeping: the context seized for the child.
	childCtx *context
}

// maxSources bounds isa.Inst.Sources: two registers at most.
const maxSources = 2

// operands are one instruction's register operands. New decodes them once
// per instruction of the program, so fetch and retire read them instead of
// decoding every dynamic instance again.
type operands struct {
	src     [maxSources]isa.RegRef
	nsrc    uint8
	hasDest bool
	dest    isa.RegRef
}

// depLink is one source slot of entry e in a waiter list; a nil e ends
// the list.
type depLink struct {
	e    *ruuEntry
	slot uint8
}

// entryRing is a fixed-capacity FIFO of entries.
type entryRing struct {
	buf  []*ruuEntry // power-of-two length
	head int
	n    int
}

func newEntryRing(capacity int) entryRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return entryRing{buf: make([]*ruuEntry, n)}
}

func (r *entryRing) len() int { return r.n }

// at returns the i-th oldest entry.
func (r *entryRing) at(i int) *ruuEntry { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *entryRing) push(e *ruuEntry) {
	if r.n == len(r.buf) {
		panic("cpu: more entries in flight than the fetch queue and RUU hold")
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *entryRing) pop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// stackEntry is a swapped-out thread on the LIFO context stack.
type stackEntry struct {
	thread  *emu.Thread
	ras     *bpred.RAS
	readyAt uint64 // approximate resolution of the miss that evicted it
}

// lockEntry is one address's row in the locking table. A released row is
// kept with a nil owner, so locking the address again reuses it.
type lockEntry struct {
	owner   *emu.Thread
	waiters []*emu.Thread // FIFO; head is the paper's "oldest stalled"
}

// Machine is the timing simulator.
type Machine struct {
	cfg  Config
	p    *prog.Program
	ops  []operands // by instruction index
	mem  *mem.Memory
	hier *mem.Hierarchy
	pred *bpred.Predictor

	cycle uint64
	seq   uint64

	contexts []*context
	stack    []stackEntry // LIFO

	fetchQ entryRing // fetched, awaiting dispatch (in fetch order)

	// ready holds the dispatched entries with no outstanding producer that
	// have not issued, in seq order. The issued entries that have not
	// completed wait in wheel: slot readyAt mod wheelSlots heads a list
	// linked through nextDue, so complete visits only the slot that is due.
	// Each stage works from these instead of scanning the RUU.
	ready []*ruuEntry
	wheel [wheelSlots]*ruuEntry

	ruuCount int
	lsqCount int

	locks       map[uint64]*lockEntry
	lockBlocked []bool // by thread id: blocked in the locking table

	groups map[int]int64

	nextTID int

	// Division policy state.
	deathTimes   []uint64 // recent death cycles (ring with amortised trim)
	deathHead    int
	staticFrozen bool

	// Load latency rolling average (paper: last 1000 loads).
	loadLatWindow []int
	loadLatHead   int
	loadLatSum    int64

	halted   bool
	haltSeen bool

	// Output accumulates print-instruction values; OutputCycles records the
	// cycle each value was produced (used for section timing markers).
	Output       []int64
	OutputCycles []uint64
	stats        Stats

	// Divisions records every granted division (Fig. 6 trees).
	Divisions []DivisionEvent

	// Scratch reused every cycle, and retired entries kept for reuse.
	info     emu.StepInfo // filled by every emu.Step fetch makes
	heads    []*ruuEntry
	loads    []*ruuEntry
	eligible []*context
	free     []*ruuEntry
}

// New builds a machine for program p with the ancestor thread on context 0.
func New(p *prog.Program, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:         cfg,
		p:           p,
		mem:         mem.NewMemory(),
		hier:        mem.NewHierarchy(cfg.Hierarchy),
		pred:        bpred.New(cfg.Predictor),
		locks:       make(map[uint64]*lockEntry),
		lockBlocked: make([]bool, 1),
		groups:      make(map[int]int64),
	}
	m.mem.StoreBytes(prog.DataBase, p.Data)
	m.ops = make([]operands, len(p.Insts))
	for i := range p.Insts {
		o := &m.ops[i]
		o.nsrc = uint8(len(p.Insts[i].Sources(o.src[:0])))
		o.dest, o.hasDest = p.Insts[i].Dest()
	}
	// Every in-flight instruction sits in the fetch queue or the RUU, so
	// this many entries serve the whole run (retire recycles them), and the
	// RUU bounds the ready and loads lists.
	inFlight := cfg.FetchQueue + cfg.RUUSize
	entries := make([]ruuEntry, inFlight)
	m.free = make([]*ruuEntry, inFlight)
	for i := range entries {
		m.free[i] = &entries[i]
	}
	m.fetchQ = newEntryRing(cfg.FetchQueue)
	m.ready = make([]*ruuEntry, 0, cfg.RUUSize)
	m.loads = make([]*ruuEntry, 0, cfg.RUUSize)
	m.heads = make([]*ruuEntry, 0, cfg.Contexts)
	m.eligible = make([]*context, 0, cfg.Contexts)
	m.contexts = make([]*context, cfg.Contexts)
	for i := range m.contexts {
		m.contexts[i] = &context{
			id:      i,
			state:   ctxFree,
			ras:     bpred.NewRAS(cfg.Predictor.RASDepth),
			entries: newEntryRing(inFlight),
			stores:  newEntryRing(inFlight),
		}
	}
	t := &emu.Thread{ID: 0, Group: 0, PC: p.Entry}
	t.Regs[isa.RegSP] = int64(prog.MainStackTop)
	m.nextTID = 1
	m.groups[0] = 1
	c0 := m.contexts[0]
	c0.state = ctxActive
	c0.thread = t
	m.stats.TotalThreads = 1
	m.stats.PeakLiveThreads = 1
	return m, nil
}

// Memory exposes the simulated memory (for loading inputs and reading
// results).
func (m *Machine) Memory() *mem.Memory { return m.mem }

// Program returns the loaded program.
func (m *Machine) Program() *prog.Program { return m.p }

// Stats returns the counters (final after Run returns).
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Cycles = m.cycle
	s.BranchStats = m.pred.Stats()
	s.L1I, s.L1D, s.L2 = m.hier.Stats()
	return s
}

// Cycle returns the current cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Halted reports whether the program's halt committed.
func (m *Machine) Halted() bool { return m.halted }

// Run simulates until the program halts. It returns an error on deadlock,
// runaway simulation, or functional faults.
func (m *Machine) Run() error {
	lastCommit := uint64(0)
	lastInsts := uint64(0)
	horizon := m.deadlockHorizon()
	for !m.halted {
		if err := m.Step(); err != nil {
			return err
		}
		if m.stats.Insts != lastInsts {
			lastInsts = m.stats.Insts
			lastCommit = m.cycle
		} else if m.cycle-lastCommit > horizon {
			return fmt.Errorf("cpu: no commit progress for %d cycles at cycle %d (%s)",
				m.cycle-lastCommit, m.cycle, m.describeBlockage())
		}
		if m.cycle > m.cfg.MaxCycles {
			return fmt.Errorf("cpu: exceeded MaxCycles=%d", m.cfg.MaxCycles)
		}
	}
	m.drain()
	return nil
}

// drain lets in-flight work of other workers retire after halt committed
// (fetch stays disabled), so commit-time accounting — deaths, context
// deallocation — is complete. Work that cannot finish (e.g. a worker
// blocked on a lock whose owner halted) is abandoned after a bound.
func (m *Machine) drain() {
	bound := m.cycle + m.deadlockHorizon()
	for m.cycle < bound {
		busy := false
		for _, c := range m.contexts {
			if c.entries.len() > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		if err := m.Step(); err != nil {
			return
		}
	}
}

func (m *Machine) deadlockHorizon() uint64 {
	h := uint64(8*m.cfg.SwapCycles + 8*m.cfg.Hierarchy.MemoryCycles + 2*m.cfg.RescueBlockedCycles)
	if h < 50000 {
		h = 50000
	}
	return h
}

func (m *Machine) describeBlockage() string {
	s := ""
	for _, c := range m.contexts {
		if c.state == ctxFree {
			continue
		}
		why := "?"
		switch {
		case c.thread != nil && m.lockBlocked[c.thread.ID]:
			why = "lock"
		case c.joinWaiting:
			why = "join"
		case c.blockedOnBranch != nil:
			why = "branch"
		case c.fetchBlockedUntil > m.cycle:
			why = "latency"
		case c.dying:
			why = "dying"
		case c.evicting:
			why = "evicting"
		case c.divPending:
			why = "divpending"
		}
		pc := int32(-1)
		tid := -1
		if c.thread != nil {
			pc = c.thread.PC
			tid = c.thread.ID
		}
		s += fmt.Sprintf("[ctx%d t%d pc=%d inflight=%d %s] ", c.id, tid, pc, c.entries.len(), why)
	}
	s += fmt.Sprintf("stack=%d fetchQ=%d", len(m.stack), m.fetchQ.len())
	return s
}

// Step advances one cycle: commit -> complete -> issue -> dispatch ->
// fetch -> housekeeping (reverse pipeline order).
func (m *Machine) Step() error {
	m.commit()
	m.complete()
	m.issue()
	m.dispatch()
	if err := m.fetch(); err != nil {
		return err
	}
	m.houseKeeping()
	for _, c := range m.contexts {
		if c.state == ctxActive {
			m.stats.ActiveCtxCycles++
			if c.thread != nil && m.lockBlocked[c.thread.ID] {
				m.stats.LockStallCycles++
			}
		}
	}
	m.cycle++
	return nil
}

// ---------------------------------------------------------------- commit --

// commit retires up to CommitWidth completed entries, oldest first. Only a
// context's head can retire, and retiring changes no other context's head
// (a context nthr seizes or kthr frees has no entries), so the completed
// heads are collected once per cycle.
func (m *Machine) commit() {
	heads := m.heads[:0]
	for _, c := range m.contexts {
		if c.entries.len() > 0 && c.entries.at(0).completed {
			heads = append(heads, c.entries.at(0))
		}
	}
	m.heads = heads
	width := m.cfg.CommitWidth
	storePorts := m.hier.DataPorts()
	for width > 0 && len(heads) > 0 {
		i := 0
		for j := 1; j < len(heads); j++ {
			if heads[j].seq < heads[i].seq {
				i = j
			}
		}
		oldest, c := heads[i], heads[i].ctx
		if oldest.isStore {
			if storePorts == 0 {
				return
			}
			storePorts--
			// Write-allocate: a store miss occupies the remaining store
			// bandwidth this cycle (the line fill competes for ports), a
			// coarse model of miss-status-register pressure.
			if lat := m.hier.DataLatency(oldest.memAddr); lat > m.cfg.Hierarchy.L1D.HitCycles {
				storePorts = 0
			}
		}
		m.retire(oldest)
		width--
		if c.entries.len() > 0 && c.entries.at(0).completed {
			heads[i] = c.entries.at(0)
		} else {
			heads[i] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
}

// retire removes e from the machine and applies commit-time side effects.
func (m *Machine) retire(e *ruuEntry) {
	c := e.ctx
	c.entries.pop()
	if e.isStore {
		c.stores.pop()
	}
	// Commit is in order, so if e is still its register's youngest writer
	// no other writer of that register is left in flight.
	if e.ops.hasDest {
		if w := c.writer(e.ops.dest); *w == e {
			*w = nil
		}
	}
	c.icount--
	m.ruuCount--
	if e.isLoad || e.isStore {
		m.lsqCount--
	}
	m.stats.Insts++

	switch e.inst.Op {
	case isa.OpNthr:
		if e.childCtx != nil {
			// Register copy at commit (Section 3.1): the parent stalls one
			// cycle; the child activates once its registers are written.
			delay := uint64(m.cfg.RegCopyCycles + m.cfg.DivExtraCycles)
			cc := e.childCtx
			cc.divPending = false
			cc.state = ctxActive
			cc.fetchBlockedUntil = m.cycle + 1 + delay
			if c.fetchBlockedUntil < m.cycle+1 {
				c.fetchBlockedUntil = m.cycle + 1
			}
		}
	case isa.OpKthr:
		m.recordDeath()
		m.freeContext(c)
	case isa.OpHalt:
		m.halted = true
	}
	m.recycle(e)
}

// recycle keeps a retired entry for reuse by fetch. Nothing can still
// point at it: its producers' waiter lists were dropped when they
// completed (before it could issue), its own list and any blockedOnBranch
// reference when it completed; it left the fetch queue at dispatch, the
// ready list at issue, the wheel at completion, and its context's
// entries, stores and rename table in retire.
func (m *Machine) recycle(e *ruuEntry) {
	*e = ruuEntry{}
	m.free = append(m.free, e)
}

func (m *Machine) newEntry() *ruuEntry {
	e := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return e
}

// freeContext releases c after kthr or eviction and considers a swap-in.
func (m *Machine) freeContext(c *context) {
	c.state = ctxFree
	c.thread = nil
	c.dying = false
	c.evicting = false
	c.evictAt = 0
	c.joinWaiting = false
	c.blockedOnBranch = nil
	c.blockedSince = 0
	c.loadCounter = 0
	c.fetchBlockedUntil = 0
	c.ras.Reset()
	m.trySwapIn(c)
}

// trySwapIn pops the LIFO stack into a free context once the top thread's
// eviction-causing miss has resolved.
func (m *Machine) trySwapIn(c *context) {
	if !m.cfg.SwapOn || len(m.stack) == 0 || c.state != ctxFree {
		return
	}
	top := m.stack[len(m.stack)-1]
	if top.readyAt > m.cycle {
		return
	}
	m.stack = m.stack[:len(m.stack)-1]
	c.state = ctxActive
	c.thread = top.thread
	c.ras = top.ras
	c.fetchBlockedUntil = m.cycle + uint64(m.cfg.SwapCycles)
	m.stats.SwapsIn++
}

func (m *Machine) recordDeath() {
	m.stats.Deaths++
	m.deathTimes = append(m.deathTimes, m.cycle)
	w := uint64(m.cfg.DeathWindow)
	for m.deathHead < len(m.deathTimes) && m.deathTimes[m.deathHead]+w < m.cycle {
		m.deathHead++
	}
	if m.deathHead > 1024 {
		m.deathTimes = m.deathTimes[:copy(m.deathTimes, m.deathTimes[m.deathHead:])]
		m.deathHead = 0
	}
}

func (m *Machine) deathsInWindow() int {
	w := uint64(m.cfg.DeathWindow)
	n := 0
	for i := len(m.deathTimes) - 1; i >= m.deathHead; i-- {
		if m.deathTimes[i]+w >= m.cycle {
			n++
		} else {
			break
		}
	}
	return n
}

// -------------------------------------------------------------- complete --

// complete moves the issued entries due this cycle, those in its wheel
// slot, to the completed state, wakes dependents, and resolves
// mispredicted control flow. Its cost follows the entries that complete,
// not the entries in flight. Only the swap policy's rolling load average,
// and so eviction, depends on the order entries complete in: the loads
// due in one cycle are fed to it in (context id, seq) order.
func (m *Machine) complete() {
	loads := m.loads[:0]
	slot := &m.wheel[m.cycle%wheelSlots]
	next := *slot
	*slot = nil
	for e := next; e != nil; e = next {
		next = e.nextDue
		if e.readyAt > m.cycle {
			// Issued with a latency past the wheel's span: due a lap on.
			e.nextDue = *slot
			*slot = e
			continue
		}
		e.nextDue = nil
		c := e.ctx
		e.completed = true
		for l := e.firstDep; l.e != nil; l = l.e.nextDep[l.slot] {
			d := l.e
			d.deps--
			if d.deps == 0 && d.inRUU {
				m.makeReady(d)
			}
		}
		e.firstDep = depLink{}
		if e.mispredicted && c.blockedOnBranch == e {
			c.blockedOnBranch = nil
			if c.fetchBlockedUntil < m.cycle+1 {
				c.fetchBlockedUntil = m.cycle + 1
			}
		}
		if e.isLoad {
			loads = append(loads, e)
		}
	}
	for i := 1; i < len(loads); i++ {
		for j := i; j > 0 && completesBefore(loads[j], loads[j-1]); j-- {
			loads[j], loads[j-1] = loads[j-1], loads[j]
		}
	}
	for _, e := range loads {
		m.noteLoadLatency(e.ctx, e.latCycles)
	}
	m.loads = loads
}

// wheelSlots is the timing wheel's span in cycles: it covers a miss to
// Table 1's 200-cycle memory, so only a longer latency is visited twice.
const wheelSlots = 256

// schedule files an issued entry in the wheel slot of the cycle it
// completes in. This cycle's slot was visited before issue, so an entry
// due now (a zero-cycle hit latency) goes in the next one and completes
// next cycle.
func (m *Machine) schedule(e *ruuEntry) {
	slot := &m.wheel[max(e.readyAt, m.cycle+1)%wheelSlots]
	e.nextDue = *slot
	*slot = e
}

func completesBefore(a, b *ruuEntry) bool {
	return a.ctx.id < b.ctx.id || a.ctx.id == b.ctx.id && a.seq < b.seq
}

// makeReady inserts a dispatched entry whose last producer just completed
// into the ready list at its seq position.
func (m *Machine) makeReady(e *ruuEntry) {
	i := len(m.ready)
	m.ready = append(m.ready, e)
	for ; i > 0 && m.ready[i-1].seq > e.seq; i-- {
		m.ready[i] = m.ready[i-1]
	}
	m.ready[i] = e
}

// ----------------------------------------------------------------- issue --

// issue walks the ready list oldest first, issuing what the functional
// units and data ports allow.
func (m *Machine) issue() {
	width := m.cfg.IssueWidth
	ialu := m.cfg.IALUs
	imult := m.cfg.IMults
	fpalu := m.cfg.FPALUs
	fpmult := m.cfg.FPMults
	ports := m.hier.DataPorts()

	for _, e := range m.ready {
		if width == 0 {
			break
		}
		lat := e.inst.Op.Latency()
		switch e.inst.Op.Class() {
		case isa.ClassIALU, isa.ClassCtrl, isa.ClassSys:
			if ialu == 0 {
				continue
			}
			ialu--
		case isa.ClassIMult:
			if imult == 0 {
				continue
			}
			imult--
		case isa.ClassFPALU:
			if fpalu == 0 {
				continue
			}
			fpalu--
		case isa.ClassFPMult:
			if fpmult == 0 {
				continue
			}
			fpmult--
		case isa.ClassMem:
			if e.isLoad {
				if ports == 0 {
					continue
				}
				ports--
				if m.olderStoreSameAddr(e) {
					lat = 1 // store-to-load forwarding from the LSQ
				} else {
					lat = m.hier.DataLatency(e.memAddr)
				}
			} else {
				lat = 1 // stores complete into the store buffer
			}
		}
		e.issued = true
		e.latCycles = lat
		e.readyAt = m.cycle + uint64(lat)
		m.schedule(e)
		width--
	}
	if width < m.cfg.IssueWidth {
		waiting := m.ready[:0]
		for _, e := range m.ready {
			if !e.issued {
				waiting = append(waiting, e)
			}
		}
		m.ready = waiting
	}
}

// olderStoreSameAddr reports whether an older in-flight store of the same
// context targets the same word (the value forwards from the store buffer).
func (m *Machine) olderStoreSameAddr(load *ruuEntry) bool {
	stores := &load.ctx.stores
	for i := range stores.len() {
		st := stores.at(i)
		if st.seq >= load.seq {
			return false
		}
		if st.memAddr>>3 == load.memAddr>>3 {
			return true
		}
	}
	return false
}

func (m *Machine) noteLoadLatency(c *context, lat int) {
	if !m.cfg.SwapOn || m.cfg.LoadAvgWindow <= 0 {
		return
	}
	if len(m.loadLatWindow) < m.cfg.LoadAvgWindow {
		m.loadLatWindow = append(m.loadLatWindow, lat)
		m.loadLatSum += int64(lat)
	} else {
		m.loadLatSum += int64(lat) - int64(m.loadLatWindow[m.loadLatHead])
		m.loadLatWindow[m.loadLatHead] = lat
		m.loadLatHead = (m.loadLatHead + 1) % m.cfg.LoadAvgWindow
	}
	avg := float64(m.loadLatSum) / float64(len(m.loadLatWindow))
	if float64(lat) > avg {
		c.loadCounter++
	} else if c.loadCounter > 0 {
		c.loadCounter--
	}
	if c.loadCounter >= m.cfg.SwapThreshold {
		m.maybeEvict(c)
	}
}

// maybeEvict swaps c out when no hardware context is free (the paper's
// condition) and the stack has room.
func (m *Machine) maybeEvict(c *context) {
	if !m.cfg.SwapOn || c.evicting || c.dying || c.state == ctxFree {
		return
	}
	if len(m.stack) >= m.cfg.StackEntries {
		return
	}
	for _, o := range m.contexts {
		if o.state == ctxFree {
			return // a free context exists; no need to evict
		}
	}
	c.evicting = true
	c.state = ctxStall
	c.loadCounter = 0
}

// -------------------------------------------------------------- dispatch --

func (m *Machine) dispatch() {
	width := m.cfg.DecodeWidth
	for width > 0 && m.fetchQ.len() > 0 {
		e := m.fetchQ.at(0)
		if m.ruuCount >= m.cfg.RUUSize {
			return
		}
		if (e.isLoad || e.isStore) && m.lsqCount >= m.cfg.LSQSize {
			return
		}
		m.fetchQ.pop()
		m.ruuCount++
		if e.isLoad || e.isStore {
			m.lsqCount++
		}
		e.inRUU = true
		if e.deps == 0 {
			// Dispatch runs in seq order, after every entry already in the
			// ready list.
			m.ready = append(m.ready, e)
		}
		width--
	}
}

// ----------------------------------------------------------------- fetch --

// canFetch reports whether c may fetch this cycle.
func (m *Machine) canFetch(c *context) bool {
	if c.state != ctxActive || c.thread == nil || c.dying || c.evicting {
		return false
	}
	if c.fetchBlockedUntil > m.cycle || c.blockedOnBranch != nil {
		return false
	}
	if m.lockBlocked[c.thread.ID] {
		return false
	}
	if c.joinWaiting {
		if m.groups[c.thread.Group] > 1 {
			return false
		}
		c.joinWaiting = false
		c.blockedSince = 0
	}
	return true
}

func (m *Machine) fetch() error {
	if m.haltSeen {
		return nil
	}
	eligible := m.eligible[:0]
	for _, c := range m.contexts {
		if m.canFetch(c) {
			eligible = append(eligible, c)
		}
	}
	m.eligible = eligible
	if len(eligible) == 0 {
		return nil
	}
	rot := 0
	if m.cfg.RoundRobinFetch {
		// Rotate the starting context by cycle (the ablation baseline).
		rot = int(m.cycle) % len(eligible)
	} else {
		// ICOUNT: prefer contexts with the fewest in-flight instructions.
		for i := 1; i < len(eligible); i++ {
			for j := i; j > 0 && eligible[j].icount < eligible[j-1].icount; j-- {
				eligible[j], eligible[j-1] = eligible[j-1], eligible[j]
			}
		}
	}
	nsel := m.cfg.FetchThreads
	if nsel > len(eligible) {
		nsel = len(eligible)
	}
	perThread := m.cfg.FetchPerThread
	if nsel < m.cfg.FetchThreads {
		perThread = m.cfg.MaxFetchPerThread
	}
	budget := m.cfg.FetchWidth
	preds := m.cfg.BranchPredsPerCycle

	for i := 0; i < nsel && budget > 0; i++ {
		j := rot + i // rot < len(eligible) and i < nsel <= len(eligible)
		if j >= len(eligible) {
			j -= len(eligible)
		}
		c := eligible[j]
		n, err := m.fetchThread(c, min(perThread, budget), &preds)
		if err != nil {
			return err
		}
		budget -= n
	}
	return nil
}

// fetchThread fetches up to maxN instructions for c, returning the count.
func (m *Machine) fetchThread(c *context, maxN int, preds *int) (int, error) {
	t := c.thread
	// One I-cache access per fetch block.
	lat := m.hier.InstLatency(prog.PCByteAddr(t.PC))
	if lat > m.cfg.Hierarchy.L1I.HitCycles {
		c.fetchBlockedUntil = m.cycle + uint64(lat)
		return 0, nil
	}
	// Fetch stops at the cache line boundary (8 instructions per line).
	lineEnd := (int(t.PC)/8 + 1) * 8
	fetched := 0
	for fetched < maxN && int(t.PC) < lineEnd {
		if m.fetchQ.len() >= m.cfg.FetchQueue {
			break
		}
		if int(t.PC) >= len(m.p.Insts) {
			return fetched, emu.ErrPC{Thread: t.ID, PC: t.PC}
		}
		nextOp := m.p.Insts[t.PC].Op
		if nextOp.IsBranch() && *preds == 0 {
			break // out of branch-prediction bandwidth this cycle
		}

		info := &m.info
		st, err := emu.Step(m.p, m.mem, m, t, info)
		if err != nil {
			return fetched, err
		}
		if st == emu.StatusBlocked {
			switch info.Inst.Op {
			case isa.OpMlock:
				m.lockBlocked[t.ID] = true
			case isa.OpJoin:
				c.joinWaiting = true
			}
			if c.blockedSince == 0 {
				c.blockedSince = m.cycle
			}
			break
		}

		e := m.newEntry()
		e.seq, e.ctx, e.inst, e.ops, e.memAddr = m.seq, c, info.Inst, &m.ops[info.PC], info.MemAddr
		m.seq++
		e.isLoad = info.Inst.Op.IsLoad()
		e.isStore = info.Inst.Op.IsStore()
		m.resolveDeps(c, e)
		c.entries.push(e)
		if e.isStore {
			c.stores.push(e)
		}
		m.fetchQ.push(e)
		c.icount++
		m.stats.FetchedInsts++
		fetched++

		redirect := false
		switch {
		case info.Inst.Op.IsBranch():
			*preds--
			correct := m.pred.Update(prog.PCByteAddr(info.PC), info.Taken)
			if !correct {
				e.mispredicted = true
				c.blockedOnBranch = e
				m.stats.MispredictedBranches++
				return fetched, nil
			}
			redirect = info.Taken
		case info.Inst.Op == isa.OpJal:
			c.ras.Push(uint64(info.PC + 1))
			redirect = true
		case info.Inst.Op == isa.OpJalr:
			predTarget, ok := c.ras.Pop()
			if !ok || predTarget != uint64(info.NextPC) {
				e.mispredicted = true
				c.blockedOnBranch = e
				m.stats.MispredictedBranches++
				return fetched, nil
			}
			redirect = true
		case info.Inst.Op == isa.OpJ:
			redirect = true
		}

		switch st {
		case emu.StatusDead:
			// kthr: active -> stall; the context frees when it commits.
			c.dying = true
			c.state = ctxStall
			return fetched, nil
		case emu.StatusHalt:
			m.haltSeen = true
			return fetched, nil
		}
		if info.DivGranted {
			e.childCtx = m.ctxOfThread(info.Child)
		}
		if redirect {
			// Taken control flow ends the fetch block; the thread resumes
			// at the target next cycle.
			break
		}
	}
	return fetched, nil
}

// resolveDeps wires register dependences: the youngest in-flight producer
// of each source, read from the rename table before e's own destination
// is entered there, feeds e.
func (m *Machine) resolveDeps(c *context, e *ruuEntry) {
	o := e.ops
	for i, s := range o.src[:o.nsrc] {
		if p := *c.writer(s); p != nil && !p.completed {
			e.nextDep[i] = p.firstDep
			p.firstDep = depLink{e, uint8(i)}
			e.deps++
		}
	}
	if o.hasDest {
		*c.writer(o.dest) = e
	}
}

func (m *Machine) ctxOfThread(t *emu.Thread) *context {
	for _, c := range m.contexts {
		if c.thread == t {
			return c
		}
	}
	return nil
}

// ---------------------------------------------------------- housekeeping --

func (m *Machine) houseKeeping() {
	// Complete evictions whose pipelines drained.
	for _, c := range m.contexts {
		if c.evicting && c.entries.len() == 0 {
			if c.evictAt == 0 {
				c.evictAt = m.cycle + uint64(m.cfg.SwapCycles)
				continue
			}
			if m.cycle >= c.evictAt {
				m.stack = append(m.stack, stackEntry{
					thread:  c.thread,
					ras:     c.ras.Clone(),
					readyAt: m.cycle + uint64(m.cfg.Hierarchy.MemoryCycles),
				})
				if len(m.stack) > m.stats.MaxStackDepth {
					m.stats.MaxStackDepth = len(m.stack)
				}
				m.stats.SwapsOut++
				m.freeContext(c)
			}
		}
	}
	// Swap-in into free contexts whose stack top became ready.
	for _, c := range m.contexts {
		if c.state == ctxFree {
			m.trySwapIn(c)
		}
	}
	// Rescue: a context blocked on a lock/join for a long time yields to a
	// ready stacked thread (prevents priority inversion when the lock
	// owner itself sits on the stack).
	if m.cfg.SwapOn && len(m.stack) > 0 && len(m.stack) < m.cfg.StackEntries && m.cfg.RescueBlockedCycles > 0 {
		top := m.stack[len(m.stack)-1]
		if top.readyAt <= m.cycle {
			for _, c := range m.contexts {
				if c.state == ctxActive && c.thread != nil &&
					(m.lockBlocked[c.thread.ID] || c.joinWaiting) &&
					c.entries.len() == 0 && !c.evicting && !c.dying &&
					c.blockedSince > 0 && m.cycle-c.blockedSince > uint64(m.cfg.RescueBlockedCycles) {
					c.evicting = true
					c.state = ctxStall
					m.stats.Rescues++
					break
				}
			}
		}
	}
	// Track peak liveness.
	live := len(m.stack)
	for _, c := range m.contexts {
		if c.state != ctxFree && c.thread != nil {
			live++
		}
	}
	if live > m.stats.PeakLiveThreads {
		m.stats.PeakLiveThreads = live
	}
}
