// Package asm implements the assembler for the reproduction's ISA. It plays
// the role of the paper's assembly-level stage: CapC's code generator emits
// textual assembly (as GCC did for the paper), the capsule runtime is written
// directly in this assembly, and Assemble links any number of units into one
// executable prog.Program with a shared symbol table.
//
// Syntax summary:
//
//	# comment            // comment
//	.text                switch to text section
//	.data                switch to data section
//	label:               define a symbol at the current location
//	.word 1, -2, sym     8-byte words (symbols store their value)
//	.byte 1, 2, 3        raw bytes
//	.float 1.5           float64 image
//	.space 64            zeroed bytes
//	.asciiz "s"          NUL-terminated string
//	.align 8             pad to alignment
//	add a0, a1, a2       one instruction per line (see isa package)
//
// Pseudo-instructions: li, la, mv, neg, not, beqz, bnez, bgt, ble, bgtu,
// bleu, call, ret, jmp.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Unit is one named assembly source (name is used in error messages).
type Unit struct {
	Name string
	Text string
}

// Assemble links the units into a program. The entry point is the `_start`
// symbol if present, otherwise `main`.
func Assemble(units ...Unit) (*prog.Program, error) {
	a := &assembler{symbols: make(map[string]prog.Symbol)}
	// Pass 1: lay out sections and record symbol values.
	for _, u := range units {
		if err := a.pass(u, 1); err != nil {
			return nil, err
		}
	}
	// Pass 2: emit instructions and data with symbols resolved.
	a.reset()
	for _, u := range units {
		if err := a.pass(u, 2); err != nil {
			return nil, err
		}
	}
	p := &prog.Program{Insts: a.insts, Data: a.data, Symbols: a.symbols}
	entrySym := "_start"
	if _, ok := a.symbols[entrySym]; !ok {
		entrySym = "main"
	}
	e, ok := a.symbols[entrySym]
	if !ok || e.Kind != prog.SymText {
		return nil, fmt.Errorf("asm: no _start or main text symbol")
	}
	p.Entry = int32(e.Value)
	return p, nil
}

type assembler struct {
	symbols map[string]prog.Symbol
	insts   []isa.Inst
	data    []byte

	// Layout cursors.
	textPos int // instruction index
	dataPos int // byte offset within the data image
}

// maxDataBytes is the room between DataBase and the heap: a data image
// that outgrew it would overlap the runtime's allocator. .align and .space
// check their count against it before padding, so a huge count fails at
// once instead of looping until memory runs out.
const maxDataBytes = int64(prog.HeapBase - prog.DataBase)

func (a *assembler) reset() {
	a.textPos, a.dataPos = 0, 0
	a.insts = nil
	a.data = nil
}

type lineCtx struct {
	unit string
	num  int
}

func (lc lineCtx) errf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", lc.unit, lc.num, fmt.Sprintf(format, args...))
}

func (a *assembler) pass(u Unit, pass int) error {
	section := "text"
	lines := strings.Split(u.Text, "\n")
	for i, raw := range lines {
		lc := lineCtx{unit: u.Name, num: i + 1}
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Peel leading labels.
		for {
			idx := labelEnd(line)
			if idx < 0 {
				break
			}
			name := strings.TrimSpace(line[:idx])
			if !validIdent(name) {
				return lc.errf("invalid label %q", name)
			}
			if pass == 1 {
				if _, dup := a.symbols[name]; dup {
					return lc.errf("duplicate symbol %q", name)
				}
				if section == "text" {
					a.symbols[name] = prog.Symbol{Kind: prog.SymText, Value: int64(a.textPos)}
				} else {
					a.symbols[name] = prog.Symbol{Kind: prog.SymData, Value: int64(prog.DataBase) + int64(a.dataPos)}
				}
			}
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			var err error
			section, err = a.directive(lc, section, line, pass)
			if err != nil {
				return err
			}
			continue
		}
		if section != "text" {
			return lc.errf("instruction outside .text: %q", line)
		}
		if err := a.instruction(lc, line, pass); err != nil {
			return err
		}
	}
	return nil
}

// stripComment removes '#' and '//' comments, respecting double-quoted
// strings (for .asciiz).
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
		case c == '#':
			return s[:i]
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

// labelEnd returns the index of a leading "label:" colon, or -1. It only
// matches when the text before the colon is a plain identifier.
func labelEnd(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ':' {
			if i == 0 {
				return -1
			}
			return i
		}
		if !isIdentChar(c) {
			return -1
		}
	}
	return -1
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' || c == '$' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	if s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	return true
}

func (a *assembler) directive(lc lineCtx, section, line string, pass int) (string, error) {
	name, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text":
		return "text", nil
	case ".data":
		return "data", nil
	case ".global", ".globl":
		return section, nil // all symbols are global in this assembler
	case ".align":
		n, err := parseInt(rest)
		if err != nil || n <= 0 || n > maxDataBytes {
			return section, lc.errf(".align wants a positive integer up to %d", maxDataBytes)
		}
		if section != "data" {
			return section, lc.errf(".align only valid in .data")
		}
		for a.dataPos%int(n) != 0 {
			a.emitByte(0)
		}
	case ".word", ".byte", ".float", ".space", ".ascii", ".asciiz":
		if section != "data" {
			return section, lc.errf("%s only valid in .data", name)
		}
	default:
		return section, lc.errf("unknown directive %s", name)
	}

	switch name {
	case ".word":
		for a.dataPos%8 != 0 {
			a.emitByte(0)
		}
		for _, f := range splitOperands(rest) {
			v, err := a.wordValue(lc, f, pass)
			if err != nil {
				return section, err
			}
			a.emitWord(v)
		}
	case ".byte":
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil {
				return section, lc.errf("bad byte %q", f)
			}
			a.emitByte(byte(v))
		}
	case ".float":
		for a.dataPos%8 != 0 {
			a.emitByte(0)
		}
		for _, f := range splitOperands(rest) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return section, lc.errf("bad float %q", f)
			}
			a.emitWord(int64(math.Float64bits(v)))
		}
	case ".space":
		n, err := parseInt(rest)
		if err != nil || n < 0 || n > maxDataBytes {
			return section, lc.errf(".space wants a non-negative integer up to %d", maxDataBytes)
		}
		for j := int64(0); j < n; j++ {
			a.emitByte(0)
		}
	case ".ascii", ".asciiz":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return section, lc.errf("bad string %s", rest)
		}
		for j := 0; j < len(s); j++ {
			a.emitByte(s[j])
		}
		if name == ".asciiz" {
			a.emitByte(0)
		}
	}
	if int64(a.dataPos) > maxDataBytes {
		return section, lc.errf("data image outgrows its %d bytes", maxDataBytes)
	}
	return section, nil
}

func (a *assembler) wordValue(lc lineCtx, f string, pass int) (int64, error) {
	if v, err := parseInt(f); err == nil {
		return v, nil
	}
	if !validIdent(f) {
		return 0, lc.errf("bad word value %q", f)
	}
	if pass == 1 {
		return 0, nil // symbol values resolve in pass 2
	}
	sym, ok := a.symbols[f]
	if !ok {
		return 0, lc.errf("undefined symbol %q", f)
	}
	return sym.Value, nil
}

func (a *assembler) emitByte(b byte) {
	a.data = append(a.data, b)
	a.dataPos++
}

func (a *assembler) emitWord(v int64) {
	for j := 0; j < 8; j++ {
		a.emitByte(byte(uint64(v) >> (8 * j)))
	}
}

func (a *assembler) emit(in isa.Inst) {
	a.insts = append(a.insts, in)
	a.textPos++
}

// splitOperands splits on top-level commas (no nesting in this syntax).
func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		return int64(body[0]), nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

const fitsI16Min, fitsI16Max = -32768, 32767

// liLen returns the number of instructions li expands to for imm.
func liLen(imm int64) int {
	if imm >= fitsI16Min && imm <= fitsI16Max {
		return 1
	}
	return 2
}

// emitLI expands li rd, imm.
func (a *assembler) emitLI(rd isa.Reg, imm int64) {
	if imm >= fitsI16Min && imm <= fitsI16Max {
		a.emit(isa.Inst{Op: isa.OpAddi, Rd: rd, Rs1: isa.RegZero, Imm: imm})
		return
	}
	hi := int64(uint64(imm) >> 16)
	lo := int64(uint64(imm) & 0xFFFF)
	a.emit(isa.Inst{Op: isa.OpLui, Rd: rd, Imm: hi})
	a.emit(isa.Inst{Op: isa.OpOri, Rd: rd, Rs1: rd, Imm: lo})
}

// instSize returns the instruction count a statement expands to (pass 1).
func (a *assembler) instSize(lc lineCtx, mnem string, ops []string) (int, error) {
	switch mnem {
	case "li":
		if len(ops) != 2 {
			return 0, lc.errf("li wants 2 operands")
		}
		imm, err := parseInt(ops[1])
		if err != nil {
			return 0, lc.errf("li immediate %q: %v", ops[1], err)
		}
		return liLen(imm), nil
	case "la":
		return 2, nil
	default:
		return 1, nil
	}
}

func (a *assembler) instruction(lc lineCtx, line string, pass int) error {
	mnem, rest, _ := strings.Cut(line, " ")
	mnem = strings.TrimSpace(mnem)
	ops := splitOperands(strings.TrimSpace(rest))
	if pass == 1 {
		n, err := a.instSize(lc, mnem, ops)
		if err != nil {
			return err
		}
		a.textPos += n
		return nil
	}
	return a.encode(lc, mnem, ops)
}

func (a *assembler) intReg(lc lineCtx, s string) (isa.Reg, error) {
	r, ok := isa.IntRegByName(s)
	if !ok {
		return 0, lc.errf("bad integer register %q", s)
	}
	return r, nil
}

func (a *assembler) fpReg(lc lineCtx, s string) (isa.Reg, error) {
	r, ok := isa.FPRegByName(s)
	if !ok {
		return 0, lc.errf("bad fp register %q", s)
	}
	return r, nil
}

func (a *assembler) textTarget(lc lineCtx, s string) (int32, error) {
	sym, ok := a.symbols[s]
	if !ok {
		return 0, lc.errf("undefined label %q", s)
	}
	if sym.Kind != prog.SymText {
		return 0, lc.errf("%q is not a text label", s)
	}
	return int32(sym.Value), nil
}

// memOperand parses "imm(reg)" or "(reg)".
func (a *assembler) memOperand(lc lineCtx, s string) (isa.Reg, int64, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, lc.errf("bad memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	var imm int64
	if immStr != "" {
		v, err := parseInt(immStr)
		if err != nil {
			return 0, 0, lc.errf("bad displacement %q", immStr)
		}
		imm = v
	}
	reg, err := a.intReg(lc, strings.TrimSpace(s[open+1:len(s)-1]))
	return reg, imm, err
}

func (a *assembler) encode(lc lineCtx, mnem string, ops []string) error {
	want := func(n int) error {
		if len(ops) != n {
			return lc.errf("%s wants %d operands, got %d", mnem, n, len(ops))
		}
		return nil
	}

	// Pseudo-instructions first.
	switch mnem {
	case "li":
		if err := want(2); err != nil {
			return err
		}
		rd, err := a.intReg(lc, ops[0])
		if err != nil {
			return err
		}
		imm, err := parseInt(ops[1])
		if err != nil {
			return lc.errf("li immediate %q: %v", ops[1], err)
		}
		a.emitLI(rd, imm)
		return nil
	case "la":
		if err := want(2); err != nil {
			return err
		}
		rd, err := a.intReg(lc, ops[0])
		if err != nil {
			return err
		}
		sym, ok := a.symbols[ops[1]]
		if !ok {
			return lc.errf("undefined symbol %q", ops[1])
		}
		v := sym.Value
		hi := int64(uint64(v) >> 16)
		lo := int64(uint64(v) & 0xFFFF)
		a.emit(isa.Inst{Op: isa.OpLui, Rd: rd, Imm: hi, Sym: ops[1]})
		a.emit(isa.Inst{Op: isa.OpOri, Rd: rd, Rs1: rd, Imm: lo})
		return nil
	case "mv":
		if err := want(2); err != nil {
			return err
		}
		rd, err := a.intReg(lc, ops[0])
		if err != nil {
			return err
		}
		rs, err := a.intReg(lc, ops[1])
		if err != nil {
			return err
		}
		a.emit(isa.Inst{Op: isa.OpAddi, Rd: rd, Rs1: rs})
		return nil
	case "neg":
		if err := want(2); err != nil {
			return err
		}
		rd, err := a.intReg(lc, ops[0])
		if err != nil {
			return err
		}
		rs, err := a.intReg(lc, ops[1])
		if err != nil {
			return err
		}
		a.emit(isa.Inst{Op: isa.OpSub, Rd: rd, Rs1: isa.RegZero, Rs2: rs})
		return nil
	case "not":
		if err := want(2); err != nil {
			return err
		}
		rd, err := a.intReg(lc, ops[0])
		if err != nil {
			return err
		}
		rs, err := a.intReg(lc, ops[1])
		if err != nil {
			return err
		}
		a.emit(isa.Inst{Op: isa.OpXori, Rd: rd, Rs1: rs, Imm: -1})
		return nil
	case "beqz", "bnez":
		if err := want(2); err != nil {
			return err
		}
		rs, err := a.intReg(lc, ops[0])
		if err != nil {
			return err
		}
		t, err := a.textTarget(lc, ops[1])
		if err != nil {
			return err
		}
		op := isa.OpBeq
		if mnem == "bnez" {
			op = isa.OpBne
		}
		a.emit(isa.Inst{Op: op, Rs1: rs, Rs2: isa.RegZero, Targ: t, Sym: ops[1]})
		return nil
	case "bgt", "ble", "bgtu", "bleu":
		if err := want(3); err != nil {
			return err
		}
		r1, err := a.intReg(lc, ops[0])
		if err != nil {
			return err
		}
		r2, err := a.intReg(lc, ops[1])
		if err != nil {
			return err
		}
		t, err := a.textTarget(lc, ops[2])
		if err != nil {
			return err
		}
		var op isa.Op
		switch mnem {
		case "bgt":
			op = isa.OpBlt
		case "ble":
			op = isa.OpBge
		case "bgtu":
			op = isa.OpBltu
		case "bleu":
			op = isa.OpBgeu
		}
		// Operands swapped: bgt a,b == blt b,a.
		a.emit(isa.Inst{Op: op, Rs1: r2, Rs2: r1, Targ: t, Sym: ops[2]})
		return nil
	case "call":
		if err := want(1); err != nil {
			return err
		}
		t, err := a.textTarget(lc, ops[0])
		if err != nil {
			return err
		}
		a.emit(isa.Inst{Op: isa.OpJal, Rd: isa.RegRA, Targ: t, Sym: ops[0]})
		return nil
	case "ret":
		if err := want(0); err != nil {
			return err
		}
		a.emit(isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA})
		return nil
	case "jmp":
		if err := want(1); err != nil {
			return err
		}
		t, err := a.textTarget(lc, ops[0])
		if err != nil {
			return err
		}
		a.emit(isa.Inst{Op: isa.OpJ, Targ: t, Sym: ops[0]})
		return nil
	}

	op, ok := isa.OpByName(mnem)
	if !ok {
		return lc.errf("unknown mnemonic %q", mnem)
	}
	in := isa.Inst{Op: op, Targ: -1}
	var err error
	switch op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu:
		if err = want(3); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.intReg(lc, ops[1]); err != nil {
			return err
		}
		if in.Rs2, err = a.intReg(lc, ops[2]); err != nil {
			return err
		}
	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpSlti:
		if err = want(3); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.intReg(lc, ops[1]); err != nil {
			return err
		}
		if in.Imm, err = parseInt(ops[2]); err != nil {
			return lc.errf("bad immediate %q", ops[2])
		}
	case isa.OpLui:
		if err = want(2); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Imm, err = parseInt(ops[1]); err != nil {
			return lc.errf("bad immediate %q", ops[1])
		}
	case isa.OpLd, isa.OpLb:
		if err = want(2); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, in.Imm, err = a.memOperand(lc, ops[1]); err != nil {
			return err
		}
	case isa.OpSd, isa.OpSb:
		if err = want(2); err != nil {
			return err
		}
		if in.Rs2, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, in.Imm, err = a.memOperand(lc, ops[1]); err != nil {
			return err
		}
	case isa.OpFld:
		if err = want(2); err != nil {
			return err
		}
		if in.Rd, err = a.fpReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, in.Imm, err = a.memOperand(lc, ops[1]); err != nil {
			return err
		}
	case isa.OpFsd:
		if err = want(2); err != nil {
			return err
		}
		if in.Rs2, err = a.fpReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, in.Imm, err = a.memOperand(lc, ops[1]); err != nil {
			return err
		}
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		if err = want(3); err != nil {
			return err
		}
		if in.Rs1, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs2, err = a.intReg(lc, ops[1]); err != nil {
			return err
		}
		if in.Targ, err = a.textTarget(lc, ops[2]); err != nil {
			return err
		}
		in.Sym = ops[2]
	case isa.OpJ:
		if err = want(1); err != nil {
			return err
		}
		if in.Targ, err = a.textTarget(lc, ops[0]); err != nil {
			return err
		}
		in.Sym = ops[0]
	case isa.OpJal:
		if err = want(2); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Targ, err = a.textTarget(lc, ops[1]); err != nil {
			return err
		}
		in.Sym = ops[1]
	case isa.OpJalr:
		if err = want(3); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.intReg(lc, ops[1]); err != nil {
			return err
		}
		if in.Imm, err = parseInt(ops[2]); err != nil {
			return lc.errf("bad immediate %q", ops[2])
		}
	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv:
		if err = want(3); err != nil {
			return err
		}
		if in.Rd, err = a.fpReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.fpReg(lc, ops[1]); err != nil {
			return err
		}
		if in.Rs2, err = a.fpReg(lc, ops[2]); err != nil {
			return err
		}
	case isa.OpFsqrt, isa.OpFneg:
		if err = want(2); err != nil {
			return err
		}
		if in.Rd, err = a.fpReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.fpReg(lc, ops[1]); err != nil {
			return err
		}
	case isa.OpFlt, isa.OpFle, isa.OpFeq:
		if err = want(3); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.fpReg(lc, ops[1]); err != nil {
			return err
		}
		if in.Rs2, err = a.fpReg(lc, ops[2]); err != nil {
			return err
		}
	case isa.OpFcvtIF, isa.OpFmvIF:
		if err = want(2); err != nil {
			return err
		}
		if in.Rd, err = a.fpReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.intReg(lc, ops[1]); err != nil {
			return err
		}
	case isa.OpFcvtFI, isa.OpFmvFI:
		if err = want(2); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.fpReg(lc, ops[1]); err != nil {
			return err
		}
	case isa.OpNthr, isa.OpTcnt:
		if err = want(1); err != nil {
			return err
		}
		if in.Rd, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
	case isa.OpMlock, isa.OpMunlock, isa.OpPrint:
		if err = want(1); err != nil {
			return err
		}
		if in.Rs1, err = a.intReg(lc, ops[0]); err != nil {
			return err
		}
	case isa.OpKthr, isa.OpJoin, isa.OpHalt, isa.OpNop:
		if err = want(0); err != nil {
			return err
		}
	default:
		return lc.errf("unencodable op %q", mnem)
	}
	a.emit(in)
	return nil
}
