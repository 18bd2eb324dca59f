package capc

import (
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := Compile("test.capc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestCompileMinimal(t *testing.T) {
	c := mustCompile(t, `func main() { return 0; }`)
	if !strings.Contains(c.Asm, "main:") {
		t.Fatal("asm missing main label")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`func main() {`,                // unterminated block
		`func main() { x = ; }`,        // bad expression
		`func main() { if x { } }`,     // missing parens
		`const X = 1 / 0;`,             // const div by zero
		`func main() { return 0 }`,     // missing semicolon
		`var a[0]; func main() {}`,     // zero-size array
		`var a[4] = 3; func main() {}`, // array initialiser
		`1 + 2;`,                       // junk at top level
		`func f(a, b, c, d, e, f, g, h, i) {} func main() {}`, // >8 params
	}
	for _, src := range cases {
		if _, err := Compile("bad.capc", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []string{
		`func main() { return nope; }`,                   // undefined name
		`func main() { nope(); }`,                        // undefined function
		`func main() { break; }`,                         // break outside loop
		`func main() { continue; }`,                      // continue outside loop
		`func f() {} func main() { coworker f(); }`,      // coworker on non-worker
		`worker w(a) {} func main() { coworker w(); }`,   // arity mismatch
		`worker w() {} func main() { coworker w(1); }`,   // arity mismatch
		`func main() { var x; var x; }`,                  // duplicate local
		`func f() {} func f() {} func main() {}`,         // duplicate func
		`const X = 1; var X; func main() {}`,             // duplicate top-level
		`func print(x) {} func main() {}`,                // builtin shadowing
		`func main() { var y = print(1); }`,              // valueless in value ctx
		`func main() { 3 = 4; }`,                         // bad lvalue
		`const K = 2; func main() { K = 3; }`,            // assign to const
		`var a[4]; func main() { a = 1; }`,               // assign to array name
		`func main() { var l; var p = &l; }`,             // & of local
		`func main(x) { var t = tcnt(1); }`,              // builtin arity
		`func main() { coworker main(); }`,               // main is not a worker
		`var a[100000000]; func main() {}`,               // array past the data segment
		`var a[3000000]; var b[3000000]; func main() {}`, // globals past the data segment
		`var a[0x2000000000000000]; func main() {}`,      // size*8 wrapped to a 0-byte array
	}
	for _, src := range cases {
		if _, err := Compile("bad.capc", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestNoMainRejected(t *testing.T) {
	if _, err := Compile("x.capc", `func helper() {}`); err == nil {
		t.Fatal("missing main should be an error")
	}
}

func TestConstChain(t *testing.T) {
	c := mustCompile(t, `
const A = 4;
const B = A * 2 + 1;
var arr[B];
func main() { return B; }
`)
	if c.File.Consts[1].Value != 9 {
		t.Fatalf("B = %d", c.File.Consts[1].Value)
	}
	if c.File.Globals[0].Words != 9 {
		t.Fatalf("arr words = %d", c.File.Globals[0].Words)
	}
}

func TestWorkersListed(t *testing.T) {
	c := mustCompile(t, `
worker w1(a) { }
worker w2() { }
func helper() { }
func main() { }
`)
	if len(c.Workers) != 2 || c.Workers[0] != "w1" || c.Workers[1] != "w2" {
		t.Fatalf("workers = %v", c.Workers)
	}
}

func TestCoworkerExpansionInAsm(t *testing.T) {
	c := mustCompile(t, `
worker w(a) { print(a); }
func main() { coworker w(5); join(); }
`)
	for _, want := range []string{"nthr t0", "__cap_stack_get", "__cap_stack_put", "kthr", "jal ra, w"} {
		if !strings.Contains(c.Asm, want) {
			t.Errorf("asm missing %q:\n%s", want, c.Asm)
		}
	}
}

func TestCoworkerElseBranch(t *testing.T) {
	c := mustCompile(t, `
var fallback;
worker w(a) { print(a); }
func main() {
	coworker w(5) else { fallback = 1; }
}
`)
	// The else body replaces the sequential call: there must be exactly one
	// direct call to w (the child path).
	if n := strings.Count(c.Asm, "jal ra, w\n"); n != 1 {
		t.Errorf("want exactly 1 direct call to w (child path), got %d:\n%s", n, c.Asm)
	}
}

func TestPreProcessedListing(t *testing.T) {
	c := mustCompile(t, `
worker explore(node, dist) {
	coworker explore(node, dist);
}
func main() { }
`)
	pp := PreProcess(c.File)
	for _, want := range []string{"switch (nthr())", "case -1:", "case 0:", "case 1:", "__capsule_new_stack()", "kthr()"} {
		if !strings.Contains(pp, want) {
			t.Errorf("pre-processed listing missing %q:\n%s", want, pp)
		}
	}
}

func TestGlobalsEmitted(t *testing.T) {
	c := mustCompile(t, `
var scalar = 7;
var arr[3];
func main() { return scalar + arr[0]; }
`)
	for _, want := range []string{"g_scalar:", ".word 7", "g_arr:", ".space 24"} {
		if !strings.Contains(c.Asm, want) {
			t.Errorf("asm missing %q", want)
		}
	}
}

func TestExpressionDepthLimit(t *testing.T) {
	// Build a pathologically nested expression: ((((1+1)+1)... is fine
	// (left-assoc keeps depth 2); right-nesting forces depth growth.
	deep := "1"
	for i := 0; i < 20; i++ {
		deep = "(1 + " + deep + ")"
	}
	// Right-leaning additions stack one temp per level.
	src := `func main() { return ` + deep + `; }`
	if _, err := Compile("deep.capc", src); err == nil {
		t.Skip("depth accepted (codegen kept depth shallow); acceptable")
	}
}

// TestNumberOverflow: a literal past 64 bits is a positioned error, not a
// silent wrap — a decimal one past math.MaxInt64, a hex one past 64
// significant bits.
func TestNumberOverflow(t *testing.T) {
	for _, lit := range []string{"99999999999999999999", "9223372036854775808", "0x10000000000000000", "0x0FFFFFFFFFFFFFFFFF0"} {
		_, err := Compile("big.capc", "func main() {\n\tvar x = "+lit+";\n}\n")
		if err == nil || !strings.Contains(err.Error(), "big.capc:2: number "+lit+" out of range") {
			t.Errorf("%s: err = %v, want a range error at big.capc:2", lit, err)
		}
	}
	for _, lit := range []string{"9223372036854775807", "0xFFFFFFFFFFFFFFFF", "0x0000000000000000001"} {
		mustCompile(t, "func main() { var x = "+lit+"; }")
	}
}
