// Package emu implements the functional (architectural) execution engine.
//
// Both simulators are built on it:
//
//   - the timing model (internal/cpu) is execute-ahead: it calls Step when
//     it fetches an instruction and uses the oracle Step fills in (branch
//     outcome, memory address, division result) to charge cycles;
//   - the pure-functional Machine in this package runs whole programs
//     without timing and serves as the golden model in tests.
//
// Threads are the paper's "workers": they divide with nthr (subject to the
// Kernel's decision), die with kthr, and synchronise with the mlock/munlock
// lock table and the tcnt/join group-count extension.
package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Thread is one worker's architectural state.
type Thread struct {
	ID    int
	Group int // worker group (single common ancestor)
	PC    int32
	Regs  [isa.NumIntRegs]int64
	FRegs [isa.NumFPRegs]float64

	Dead      bool
	InstCount uint64

	// Parent is the thread this one divided from (nil for the ancestor).
	Parent *Thread
}

// Fork returns a child thread with copied register state, as performed by
// the nthr register-copy at commit. The caller assigns ID and fixes the
// destination register / PC.
func (t *Thread) Fork(id int) *Thread {
	c := &Thread{ID: id, Group: t.Group, PC: t.PC, Parent: t}
	c.Regs = t.Regs
	c.FRegs = t.FRegs
	return c
}

func (t *Thread) setReg(r isa.Reg, v int64) {
	if r != isa.RegZero {
		t.Regs[r] = v
	}
}

// Kernel is the authority for the CAPSULE system operations. The timing CPU
// implements it with the hardware policies of Section 3.1; the functional
// Machine implements it with simple always-grant-up-to-N semantics.
type Kernel interface {
	// RequestDivision decides an nthr. When granted it returns a fresh
	// child thread (register state already copied from parent).
	RequestDivision(parent *Thread) (child *Thread, granted bool)
	// ThreadExit is called when t executes kthr.
	ThreadExit(t *Thread)
	// TryLock attempts to take the hardware lock on addr; it must be
	// idempotent for the current owner. A false return blocks the thread;
	// the kernel must remember it as a waiter and wake it on transfer.
	TryLock(t *Thread, addr uint64) bool
	// Unlock releases the lock on addr, transferring it to the oldest
	// waiter per the paper's locking table.
	Unlock(t *Thread, addr uint64)
	// GroupLive returns the number of live threads in t's group.
	GroupLive(t *Thread) int64
	// Halt stops the whole machine (executed by the ancestor).
	Halt(t *Thread)
	// Print receives debug output from the print instruction.
	Print(t *Thread, v int64)
}

// Status reports the outcome of one Step.
type Status uint8

const (
	// StatusOK: the instruction executed; StepInfo is valid.
	StatusOK Status = iota
	// StatusBlocked: the instruction could not execute (lock held by
	// another thread, or join with live siblings). No state changed; the
	// same instruction must be retried.
	StatusBlocked
	// StatusDead: the thread executed kthr and is gone. StepInfo is valid.
	StatusDead
	// StatusHalt: the thread executed halt. StepInfo is valid.
	StatusHalt
)

// StepInfo is the oracle record of one executed instruction. Step fills
// in one that the caller owns, so a caller that steps in a loop keeps one
// StepInfo and reuses it: nothing is copied or allocated per instruction.
type StepInfo struct {
	Inst   *isa.Inst // into the program text, which Step never changes
	PC     int32
	NextPC int32
	Taken  bool // conditional branches only

	MemAddr uint64 // loads/stores/mlock/munlock

	DivGranted bool
	DivDenied  bool
	Child      *Thread // non-nil when DivGranted
}

// ErrPC is returned (via panic-free error) when a thread runs off the text.
type ErrPC struct {
	Thread int
	PC     int32
}

func (e ErrPC) Error() string {
	return fmt.Sprintf("emu: thread %d: PC %d outside program text", e.Thread, e.PC)
}

// Step architecturally executes the next instruction of t and records it
// in *info, overwriting every field. On an error *info is left zeroed
// (ErrPC) or names the offending instruction.
func Step(p *prog.Program, m *mem.Memory, k Kernel, t *Thread, info *StepInfo) (Status, error) {
	if t.PC < 0 || int(t.PC) >= len(p.Insts) {
		*info = StepInfo{}
		return StatusOK, ErrPC{Thread: t.ID, PC: t.PC}
	}
	in := &p.Insts[t.PC]
	*info = StepInfo{Inst: in, PC: t.PC, NextPC: t.PC + 1}
	r := &t.Regs
	f := &t.FRegs

	switch in.Op {
	case isa.OpAdd:
		t.setReg(in.Rd, r[in.Rs1]+r[in.Rs2])
	case isa.OpSub:
		t.setReg(in.Rd, r[in.Rs1]-r[in.Rs2])
	case isa.OpMul:
		t.setReg(in.Rd, r[in.Rs1]*r[in.Rs2])
	case isa.OpDiv:
		if r[in.Rs2] == 0 {
			t.setReg(in.Rd, -1)
		} else {
			t.setReg(in.Rd, r[in.Rs1]/r[in.Rs2])
		}
	case isa.OpRem:
		if r[in.Rs2] == 0 {
			t.setReg(in.Rd, r[in.Rs1])
		} else {
			t.setReg(in.Rd, r[in.Rs1]%r[in.Rs2])
		}
	case isa.OpAnd:
		t.setReg(in.Rd, r[in.Rs1]&r[in.Rs2])
	case isa.OpOr:
		t.setReg(in.Rd, r[in.Rs1]|r[in.Rs2])
	case isa.OpXor:
		t.setReg(in.Rd, r[in.Rs1]^r[in.Rs2])
	case isa.OpSll:
		t.setReg(in.Rd, r[in.Rs1]<<(uint64(r[in.Rs2])&63))
	case isa.OpSrl:
		t.setReg(in.Rd, int64(uint64(r[in.Rs1])>>(uint64(r[in.Rs2])&63)))
	case isa.OpSra:
		t.setReg(in.Rd, r[in.Rs1]>>(uint64(r[in.Rs2])&63))
	case isa.OpSlt:
		t.setReg(in.Rd, b2i(r[in.Rs1] < r[in.Rs2]))
	case isa.OpSltu:
		t.setReg(in.Rd, b2i(uint64(r[in.Rs1]) < uint64(r[in.Rs2])))

	case isa.OpAddi:
		t.setReg(in.Rd, r[in.Rs1]+in.Imm)
	case isa.OpAndi:
		t.setReg(in.Rd, r[in.Rs1]&in.Imm)
	case isa.OpOri:
		t.setReg(in.Rd, r[in.Rs1]|in.Imm)
	case isa.OpXori:
		t.setReg(in.Rd, r[in.Rs1]^in.Imm)
	case isa.OpSlli:
		t.setReg(in.Rd, r[in.Rs1]<<(uint64(in.Imm)&63))
	case isa.OpSrli:
		t.setReg(in.Rd, int64(uint64(r[in.Rs1])>>(uint64(in.Imm)&63)))
	case isa.OpSrai:
		t.setReg(in.Rd, r[in.Rs1]>>(uint64(in.Imm)&63))
	case isa.OpSlti:
		t.setReg(in.Rd, b2i(r[in.Rs1] < in.Imm))
	case isa.OpLui:
		t.setReg(in.Rd, in.Imm<<16)

	case isa.OpLd:
		info.MemAddr = uint64(r[in.Rs1] + in.Imm)
		t.setReg(in.Rd, m.ReadWord(info.MemAddr))
	case isa.OpSd:
		info.MemAddr = uint64(r[in.Rs1] + in.Imm)
		m.WriteWord(info.MemAddr, r[in.Rs2])
	case isa.OpLb:
		info.MemAddr = uint64(r[in.Rs1] + in.Imm)
		t.setReg(in.Rd, int64(m.LoadByte(info.MemAddr)))
	case isa.OpSb:
		info.MemAddr = uint64(r[in.Rs1] + in.Imm)
		m.StoreByte(info.MemAddr, byte(r[in.Rs2]))
	case isa.OpFld:
		info.MemAddr = uint64(r[in.Rs1] + in.Imm)
		f[in.Rd] = m.ReadFloat(info.MemAddr)
	case isa.OpFsd:
		info.MemAddr = uint64(r[in.Rs1] + in.Imm)
		m.WriteFloat(info.MemAddr, f[in.Rs2])

	case isa.OpBeq:
		info.Taken = r[in.Rs1] == r[in.Rs2]
	case isa.OpBne:
		info.Taken = r[in.Rs1] != r[in.Rs2]
	case isa.OpBlt:
		info.Taken = r[in.Rs1] < r[in.Rs2]
	case isa.OpBge:
		info.Taken = r[in.Rs1] >= r[in.Rs2]
	case isa.OpBltu:
		info.Taken = uint64(r[in.Rs1]) < uint64(r[in.Rs2])
	case isa.OpBgeu:
		info.Taken = uint64(r[in.Rs1]) >= uint64(r[in.Rs2])
	case isa.OpJ:
		info.NextPC = in.Targ
	case isa.OpJal:
		t.setReg(in.Rd, int64(t.PC+1))
		info.NextPC = in.Targ
	case isa.OpJalr:
		target := int32(r[in.Rs1] + in.Imm)
		t.setReg(in.Rd, int64(t.PC+1))
		info.NextPC = target

	case isa.OpFadd:
		f[in.Rd] = f[in.Rs1] + f[in.Rs2]
	case isa.OpFsub:
		f[in.Rd] = f[in.Rs1] - f[in.Rs2]
	case isa.OpFmul:
		f[in.Rd] = f[in.Rs1] * f[in.Rs2]
	case isa.OpFdiv:
		f[in.Rd] = f[in.Rs1] / f[in.Rs2]
	case isa.OpFsqrt:
		f[in.Rd] = math.Sqrt(f[in.Rs1])
	case isa.OpFneg:
		f[in.Rd] = -f[in.Rs1]
	case isa.OpFlt:
		t.setReg(in.Rd, b2i(f[in.Rs1] < f[in.Rs2]))
	case isa.OpFle:
		t.setReg(in.Rd, b2i(f[in.Rs1] <= f[in.Rs2]))
	case isa.OpFeq:
		t.setReg(in.Rd, b2i(f[in.Rs1] == f[in.Rs2]))
	case isa.OpFcvtIF:
		f[in.Rd] = float64(r[in.Rs1])
	case isa.OpFcvtFI:
		t.setReg(in.Rd, int64(f[in.Rs1]))
	case isa.OpFmvIF:
		f[in.Rd] = math.Float64frombits(uint64(r[in.Rs1]))
	case isa.OpFmvFI:
		t.setReg(in.Rd, int64(math.Float64bits(f[in.Rs1])))

	case isa.OpNthr:
		child, granted := k.RequestDivision(t)
		if granted {
			// Child state is a copy of the parent taken by the kernel
			// via Fork; both continue after the nthr, distinguished by
			// the destination register (0 = parent, 1 = child; -1 would
			// have meant the probe failed).
			child.PC = t.PC + 1
			child.setReg(in.Rd, 1)
			t.setReg(in.Rd, 0)
			info.DivGranted = true
			info.Child = child
		} else {
			t.setReg(in.Rd, -1)
			info.DivDenied = true
		}
	case isa.OpKthr:
		t.Dead = true
		t.PC++
		t.InstCount++
		k.ThreadExit(t)
		return StatusDead, nil
	case isa.OpMlock:
		info.MemAddr = uint64(r[in.Rs1])
		if !k.TryLock(t, info.MemAddr) {
			return StatusBlocked, nil
		}
	case isa.OpMunlock:
		info.MemAddr = uint64(r[in.Rs1])
		k.Unlock(t, info.MemAddr)
	case isa.OpTcnt:
		t.setReg(in.Rd, k.GroupLive(t))
	case isa.OpJoin:
		if k.GroupLive(t) > 1 {
			return StatusBlocked, nil
		}

	case isa.OpHalt:
		t.PC++
		t.InstCount++
		k.Halt(t)
		return StatusHalt, nil
	case isa.OpPrint:
		k.Print(t, r[in.Rs1])
	case isa.OpNop:
		// nothing
	default:
		return StatusOK, fmt.Errorf("emu: thread %d: unimplemented op %v at PC %d", t.ID, in.Op, t.PC)
	}

	if in.Op.IsBranch() && info.Taken {
		info.NextPC = in.Targ
	}
	t.PC = info.NextPC
	t.InstCount++
	return StatusOK, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
