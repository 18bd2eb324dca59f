package capc

import (
	"fmt"

	"repro/internal/prog"
)

// maxGlobalBytes is the room a program's globals have: the data segment
// between prog.DataBase and prog.HeapBase, less a page for the runtime
// unit's own words, which are linked in first. Past it the generated
// assembly would be refused by the assembler.
const maxGlobalBytes = int64(prog.HeapBase-prog.DataBase) - 4096

// builtin describes a CapC builtin function. Builtins compile to inline
// instruction sequences rather than calls (except alloc, which calls into
// the capsule runtime).
type builtin struct {
	name     string
	arity    int
	hasValue bool // produces a result
}

// builtins is the CapC builtin table.
//
//	alloc(n)      heap-allocate n words, returns address (runtime call)
//	print(x)      debug output via the print instruction
//	tcnt()        live worker count of this group
//	join()        stall until this worker is its group's only live member
//	loadb(p)      byte load
//	storeb(p,v)   byte store
//	itof(x)       float64(x) as raw bits
//	ftoi(b)       int64 truncation of raw bits b
//	fadd/fsub/fmul/fdiv(a,b)  float arithmetic on raw bits
//	fsqrt/fnegf(b)            unary float ops on raw bits
//	fltf/flef/feqf(a,b)       float comparisons, integer 0/1 result
var builtins = map[string]*builtin{
	"alloc":  {name: "alloc", arity: 1, hasValue: true},
	"print":  {name: "print", arity: 1},
	"tcnt":   {name: "tcnt", arity: 0, hasValue: true},
	"join":   {name: "join", arity: 0},
	"loadb":  {name: "loadb", arity: 1, hasValue: true},
	"storeb": {name: "storeb", arity: 2},
	"itof":   {name: "itof", arity: 1, hasValue: true},
	"ftoi":   {name: "ftoi", arity: 1, hasValue: true},
	"fadd":   {name: "fadd", arity: 2, hasValue: true},
	"fsub":   {name: "fsub", arity: 2, hasValue: true},
	"fmul":   {name: "fmul", arity: 2, hasValue: true},
	"fdiv":   {name: "fdiv", arity: 2, hasValue: true},
	"fsqrt":  {name: "fsqrt", arity: 1, hasValue: true},
	"fnegf":  {name: "fnegf", arity: 1, hasValue: true},
	"fltf":   {name: "fltf", arity: 2, hasValue: true},
	"flef":   {name: "flef", arity: 2, hasValue: true},
	"feqf":   {name: "feqf", arity: 2, hasValue: true},
}

// maxParams is the number of argument registers (a0..a7).
const maxParams = 8

// checker resolves names and validates the tree in place.
type checker struct {
	file    *File
	consts  map[string]int64
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl

	// Per-function state.
	fn        *FuncDecl
	scopes    []map[string]int // name -> slot
	nextSlot  int
	loopDepth int
}

// Check resolves and validates a parsed file. It mutates the AST
// (identifier resolution, local slot assignment).
func Check(f *File) error {
	c := &checker{
		file:    f,
		consts:  make(map[string]int64),
		globals: make(map[string]*GlobalDecl),
		funcs:   make(map[string]*FuncDecl),
	}
	for _, d := range f.Consts {
		if err := c.declare(d.Name, d.Line); err != nil {
			return err
		}
		c.consts[d.Name] = d.Value
	}
	var used int64 // bytes of data segment
	for _, g := range f.Globals {
		if err := c.declare(g.Name, g.Line); err != nil {
			return err
		}
		c.globals[g.Name] = g
		if int64(g.Words) > (maxGlobalBytes-used)/8 { // compared in words: g.Words*8 may overflow
			return c.errf(g.Line, "global %q does not fit: the globals get %d bytes of data segment", g.Name, maxGlobalBytes)
		}
		used += int64(g.Words) * 8
	}
	for _, fn := range f.Funcs {
		if err := c.declare(fn.Name, fn.Line); err != nil {
			return err
		}
		if len(fn.Params) > maxParams {
			return c.errf(fn.Line, "function %q has %d parameters; max %d", fn.Name, len(fn.Params), maxParams)
		}
		c.funcs[fn.Name] = fn
	}
	if _, ok := c.funcs["main"]; !ok {
		return fmt.Errorf("%s: no main function", f.Name)
	}
	for _, fn := range f.Funcs {
		if err := c.checkFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", c.file.Name, line, fmt.Sprintf(format, args...))
}

// declare rejects duplicate top-level names (including builtin shadowing).
func (c *checker) declare(name string, line int) error {
	if _, ok := builtins[name]; ok {
		return c.errf(line, "%q shadows a builtin", name)
	}
	if _, ok := c.consts[name]; ok {
		return c.errf(line, "duplicate top-level name %q", name)
	}
	if _, ok := c.globals[name]; ok {
		return c.errf(line, "duplicate top-level name %q", name)
	}
	if _, ok := c.funcs[name]; ok {
		return c.errf(line, "duplicate top-level name %q", name)
	}
	return nil
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	c.fn = fn
	c.scopes = []map[string]int{make(map[string]int)}
	c.nextSlot = 0
	c.loopDepth = 0
	for _, p := range fn.Params {
		if _, dup := c.scopes[0][p]; dup {
			return c.errf(fn.Line, "duplicate parameter %q", p)
		}
		c.scopes[0][p] = c.nextSlot
		c.nextSlot++
	}
	if err := c.checkBlock(fn.Body); err != nil {
		return err
	}
	fn.numLocals = c.nextSlot
	return nil
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]int)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookupLocal(name string) (int, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		return c.checkBlock(s)
	case *VarStmt:
		if s.Init != nil {
			if err := c.checkExpr(s.Init, true); err != nil {
				return err
			}
		}
		scope := c.scopes[len(c.scopes)-1]
		if _, dup := scope[s.Name]; dup {
			return c.errf(s.Line, "duplicate local %q in this scope", s.Name)
		}
		scope[s.Name] = c.nextSlot
		s.slot = c.nextSlot
		c.nextSlot++
		return nil
	case *AssignStmt:
		if err := c.checkLValue(s.LHS); err != nil {
			return err
		}
		return c.checkExpr(s.RHS, true)
	case *ExprStmt:
		// Statement expressions may be valueless calls (print, join...).
		return c.checkExpr(s.X, false)
	case *IfStmt:
		if err := c.checkExpr(s.Cond, true); err != nil {
			return err
		}
		if err := c.checkStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.checkExpr(s.Cond, true); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkStmt(s.Body)
	case *ForStmt:
		c.push()
		defer c.pop()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.checkExpr(s.Cond, true); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.checkStmt(s.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkStmt(s.Body)
	case *ReturnStmt:
		if s.X != nil {
			return c.checkExpr(s.X, true)
		}
		return nil
	case *BreakStmt:
		if c.loopDepth == 0 {
			return c.errf(s.Line, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return c.errf(s.Line, "continue outside loop")
		}
		return nil
	case *LockStmt:
		return c.checkExpr(s.Addr, true)
	case *CoworkerStmt:
		fn, ok := c.funcs[s.Callee]
		if !ok {
			return c.errf(s.Line, "coworker target %q is not a function", s.Callee)
		}
		if !fn.Worker {
			return c.errf(s.Line, "coworker target %q must be declared 'worker'", s.Callee)
		}
		if len(s.Args) != len(fn.Params) {
			return c.errf(s.Line, "coworker %s wants %d args, got %d", s.Callee, len(fn.Params), len(s.Args))
		}
		s.fn = fn
		for _, a := range s.Args {
			if err := c.checkExpr(a, true); err != nil {
				return err
			}
		}
		if s.Else != nil {
			return c.checkBlock(s.Else)
		}
		return nil
	}
	return fmt.Errorf("%s: unknown statement %T", c.file.Name, s)
}

// checkLValue validates assignment targets: locals, global scalars, index
// expressions, and dereferences.
func (c *checker) checkLValue(e Expr) error {
	switch e := e.(type) {
	case *IdentExpr:
		if err := c.checkExpr(e, true); err != nil {
			return err
		}
		switch e.kind {
		case identLocal, identGlobalScalar:
			return nil
		case identGlobalArray:
			return c.errf(e.Line, "cannot assign to array %q itself", e.Name)
		case identConst:
			return c.errf(e.Line, "cannot assign to constant %q", e.Name)
		}
		return c.errf(e.Line, "cannot assign to %q", e.Name)
	case *IndexExpr:
		if err := c.checkExpr(e.Base, true); err != nil {
			return err
		}
		return c.checkExpr(e.Idx, true)
	case *UnaryExpr:
		if e.Op != tokStar {
			return c.errf(e.Line, "invalid assignment target")
		}
		return c.checkExpr(e.X, true)
	}
	return fmt.Errorf("%s: invalid assignment target %T", c.file.Name, e)
}

// checkExpr resolves e. needValue requires the expression to produce a
// result (a call to a valueless builtin or void-ish function use fails).
func (c *checker) checkExpr(e Expr, needValue bool) error {
	switch e := e.(type) {
	case *NumExpr:
		return nil
	case *IdentExpr:
		if slot, ok := c.lookupLocal(e.Name); ok {
			e.kind, e.slot = identLocal, slot
			return nil
		}
		if v, ok := c.consts[e.Name]; ok {
			e.kind, e.value = identConst, v
			return nil
		}
		if g, ok := c.globals[e.Name]; ok {
			if g.Array {
				e.kind = identGlobalArray
			} else {
				e.kind = identGlobalScalar
			}
			e.sym = globalSym(e.Name)
			return nil
		}
		return c.errf(e.Line, "undefined name %q", e.Name)
	case *UnaryExpr:
		if e.Op == tokAmp {
			id, ok := e.X.(*IdentExpr)
			if !ok {
				return c.errf(e.Line, "& requires a global name")
			}
			if err := c.checkExpr(id, true); err != nil {
				return err
			}
			if id.kind != identGlobalScalar && id.kind != identGlobalArray {
				return c.errf(e.Line, "& requires a global (locals live in registers/stack)")
			}
			return nil
		}
		return c.checkExpr(e.X, true)
	case *BinaryExpr:
		if err := c.checkExpr(e.X, true); err != nil {
			return err
		}
		return c.checkExpr(e.Y, true)
	case *IndexExpr:
		if err := c.checkExpr(e.Base, true); err != nil {
			return err
		}
		return c.checkExpr(e.Idx, true)
	case *CallExpr:
		if b, ok := builtins[e.Callee]; ok {
			e.builtin = b
			if len(e.Args) != b.arity {
				return c.errf(e.Line, "%s wants %d args, got %d", b.name, b.arity, len(e.Args))
			}
			if needValue && !b.hasValue {
				return c.errf(e.Line, "%s produces no value", b.name)
			}
		} else if fn, ok := c.funcs[e.Callee]; ok {
			e.fn = fn
			if len(e.Args) != len(fn.Params) {
				return c.errf(e.Line, "%s wants %d args, got %d", e.Callee, len(fn.Params), len(e.Args))
			}
		} else {
			return c.errf(e.Line, "undefined function %q", e.Callee)
		}
		for _, a := range e.Args {
			if err := c.checkExpr(a, true); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%s: unknown expression %T", c.file.Name, e)
}

// globalSym maps a CapC global name to its assembly symbol.
func globalSym(name string) string { return "g_" + name }
