package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Image is a program with a private copy of its initialised data, used to
// inject per-run inputs into global arrays before simulation (the role the
// paper's benchmark input files played).
type Image struct {
	p *prog.Program
}

// NewImage clones base's data image so patches do not leak across runs.
func NewImage(base *prog.Program) *Image {
	clone := *base
	clone.Data = append([]byte(nil), base.Data...)
	return &Image{p: &clone}
}

// Program returns the patched program.
func (im *Image) Program() *prog.Program { return im.p }

// SetWords stores vs into the global sym from its first word on, with one
// symbol lookup and one bounds check for the whole array.
func (im *Image) SetWords(sym string, vs ...int64) error {
	addr, err := im.p.DataAddr(sym)
	if err != nil {
		return err
	}
	off := int(addr - prog.DataBase)
	if off < 0 || off+8*len(vs) > len(im.p.Data) {
		return fmt.Errorf("core: %s[0:%d] outside data image", sym, len(vs))
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(im.p.Data[off+8*i:], uint64(v))
	}
	return nil
}

// ReadWord reads the idx-th word of global sym from a post-run memory.
func ReadWord(m *mem.Memory, p *prog.Program, sym string, idx int) (int64, error) {
	addr, err := p.DataAddr(sym)
	if err != nil {
		return 0, err
	}
	return m.ReadWord(addr + uint64(idx)*8), nil
}

// RunResult is one timing simulation outcome.
type RunResult struct {
	Cycles       uint64
	Stats        cpu.Stats
	Output       []int64
	OutputCycles []uint64
	Mem          *mem.Memory
	Divisions    []cpu.DivisionEvent // every granted division, in grant order
}

// RunTiming simulates p to completion on the given machine configuration.
func RunTiming(p *prog.Program, cfg cpu.Config) (*RunResult, error) {
	m, err := cpu.New(p, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return &RunResult{
		Cycles:       m.Stats().Cycles,
		Stats:        m.Stats(),
		Output:       m.Output,
		OutputCycles: m.OutputCycles,
		Mem:          m.Memory(),
		Divisions:    m.Divisions,
	}, nil
}

// RunFunctional runs p on the functional golden model with the given worker
// bound, returning the machine for result inspection.
func RunFunctional(p *prog.Program, maxThreads int, maxSteps uint64) (*emu.Machine, error) {
	m := emu.NewMachine(p, maxThreads)
	if err := m.Run(maxSteps); err != nil {
		return nil, err
	}
	return m, nil
}

// Section markers: workloads print these sentinels to timestamp the
// boundaries of their componentised sections, so experiments can report the
// paper's "component section" speedups separately from overall speedups.
const (
	MarkSectionStart int64 = -7_700_001
	MarkSectionEnd   int64 = -7_700_002
)

// SectionCycles sums the cycles between each start/end marker pair.
func (r *RunResult) SectionCycles() (uint64, error) {
	var total uint64
	var openAt uint64
	open := false
	for i, v := range r.Output {
		switch v {
		case MarkSectionStart:
			if open {
				return 0, fmt.Errorf("core: nested section markers")
			}
			open = true
			openAt = r.OutputCycles[i]
		case MarkSectionEnd:
			if !open {
				return 0, fmt.Errorf("core: section end without start")
			}
			open = false
			total += r.OutputCycles[i] - openAt
		}
	}
	if open {
		return 0, fmt.Errorf("core: unterminated section marker")
	}
	return total, nil
}

// UserOutput returns Output with section markers stripped.
func (r *RunResult) UserOutput() []int64 {
	out := make([]int64, 0, len(r.Output))
	for _, v := range r.Output {
		if v != MarkSectionStart && v != MarkSectionEnd {
			out = append(out, v)
		}
	}
	return out
}
