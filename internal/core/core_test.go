package core

import (
	"fmt"
	"testing"

	"repro/internal/emu"
)

// runCapC builds a CapC program and runs it on the functional machine.
func runCapC(t *testing.T, src string, maxThreads int) *emu.Machine {
	t.Helper()
	b, err := BuildCapC("test", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := emu.NewMachine(b.Program, maxThreads)
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestHelloArithmetic(t *testing.T) {
	m := runCapC(t, `
func main() {
	var x = 6;
	var y = 7;
	print(x * y);
}`, 1)
	if len(m.Output) != 1 || m.Output[0] != 42 {
		t.Fatalf("output = %v", m.Output)
	}
}

func TestControlFlow(t *testing.T) {
	m := runCapC(t, `
func main() {
	var sum = 0;
	var i;
	for (i = 1; i <= 10; i = i + 1) {
		if (i % 2 == 0) { sum = sum + i; }
	}
	while (sum > 25) { sum = sum - 1; }
	print(sum);
}`, 1)
	if m.Output[0] != 25 {
		t.Fatalf("got %v", m.Output)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	m := runCapC(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { print(fib(12)); }`, 1)
	if m.Output[0] != 144 {
		t.Fatalf("fib(12) = %v", m.Output)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	m := runCapC(t, `
var total = 100;
var arr[8];
func main() {
	var i;
	for (i = 0; i < 8; i = i + 1) { arr[i] = i * i; }
	total = total + arr[7];
	print(total);
	print(arr[3]);
}`, 1)
	if m.Output[0] != 149 || m.Output[1] != 9 {
		t.Fatalf("got %v", m.Output)
	}
}

func TestPointersAndAlloc(t *testing.T) {
	m := runCapC(t, `
func main() {
	var p = alloc(4);
	p[0] = 11;
	p[1] = 22;
	var q = alloc(2);
	q[0] = p[0] + p[1];
	print(*q);
	print(q > p);
}`, 1)
	if m.Output[0] != 33 || m.Output[1] != 1 {
		t.Fatalf("got %v", m.Output)
	}
}

func TestAddressOfGlobal(t *testing.T) {
	m := runCapC(t, `
var g = 5;
func bump(p) { *p = *p + 1; }
func main() {
	bump(&g);
	bump(&g);
	print(g);
}`, 1)
	if m.Output[0] != 7 {
		t.Fatalf("got %v", m.Output)
	}
}

func TestByteBuiltins(t *testing.T) {
	m := runCapC(t, `
func main() {
	var p = alloc(1);
	storeb(p, 65);
	storeb(p + 1, 66);
	print(loadb(p));
	print(loadb(p + 1));
}`, 1)
	if m.Output[0] != 65 || m.Output[1] != 66 {
		t.Fatalf("got %v", m.Output)
	}
}

func TestFloatIntrinsics(t *testing.T) {
	m := runCapC(t, `
func main() {
	var a = itof(9);
	var b = fsqrt(a);
	print(ftoi(b));
	var c = fdiv(itof(1), itof(4));
	print(ftoi(fmul(c, itof(100))));
	print(fltf(c, itof(1)));
}`, 1)
	if m.Output[0] != 3 || m.Output[1] != 25 || m.Output[2] != 1 {
		t.Fatalf("got %v", m.Output)
	}
}

func TestShortCircuit(t *testing.T) {
	m := runCapC(t, `
var calls = 0;
func side() { calls = calls + 1; return 1; }
func main() {
	var a = 0 && side();
	var b = 1 || side();
	print(calls);
	print(a);
	print(b);
	var c = 1 && side();
	print(calls);
	print(c);
}`, 1)
	want := []int64{0, 0, 1, 1, 1}
	for i, w := range want {
		if m.Output[i] != w {
			t.Fatalf("output = %v; want %v", m.Output, want)
		}
	}
}

func TestLogicalAndComparisons(t *testing.T) {
	m := runCapC(t, `
func main() {
	print(3 < 4);
	print(4 <= 4);
	print(5 > 6);
	print(6 >= 7);
	print(8 == 8);
	print(8 != 8);
	print(!0);
	print(!7);
	print(-(3 - 5));
	print(~0);
	print(1 << 4);
	print(-16 >> 2);
}`, 1)
	want := []int64{1, 1, 0, 0, 1, 0, 1, 0, 2, -1, 16, -4}
	for i, w := range want {
		if m.Output[i] != w {
			t.Fatalf("output[%d] = %d; want %d (all: %v)", i, m.Output[i], w, m.Output)
		}
	}
}

func TestCoworkerDivides(t *testing.T) {
	m := runCapC(t, `
var acc;
worker w(v) {
	lock(&acc);
	acc = acc + v;
	unlock(&acc);
}
func main() {
	coworker w(10);
	coworker w(20);
	w(3);
	join();
	print(acc);
}`, 8)
	if m.Output[0] != 33 {
		t.Fatalf("acc = %v", m.Output)
	}
	if m.DivGranted != 2 {
		t.Fatalf("granted = %d", m.DivGranted)
	}
}

func TestCoworkerSequentialFallback(t *testing.T) {
	// maxThreads=1 denies every division; the sequential path must produce
	// identical results.
	m := runCapC(t, `
var acc;
worker w(v) {
	lock(&acc);
	acc = acc + v;
	unlock(&acc);
}
func main() {
	coworker w(10);
	coworker w(20);
	join();
	print(acc);
}`, 1)
	if m.Output[0] != 30 {
		t.Fatalf("acc = %v", m.Output)
	}
	if m.DivGranted != 0 || m.DivDenied != 2 {
		t.Fatalf("granted=%d denied=%d", m.DivGranted, m.DivDenied)
	}
}

func TestRecursiveWorkerTree(t *testing.T) {
	// A divide-and-conquer sum over [lo,hi): workers divide at each split
	// when resources allow, with lock-protected accumulation.
	src := `
var acc;
worker sum(lo, hi) {
	if (hi - lo <= 4) {
		var s = 0;
		var i;
		for (i = lo; i < hi; i = i + 1) { s = s + i; }
		lock(&acc);
		acc = acc + s;
		unlock(&acc);
		return 0;
	}
	var mid = (lo + hi) / 2;
	coworker sum(lo, mid);
	sum(mid, hi);
	return 0;
}
func main() {
	sum(0, 100);
	join();
	print(acc);
}`
	for _, threads := range []int{1, 2, 8, 24} {
		m := runCapC(t, src, threads)
		if m.Output[0] != 4950 {
			t.Fatalf("threads=%d acc=%v", threads, m.Output)
		}
	}
}

func TestCoworkerElseCustomFallback(t *testing.T) {
	// The probe-failure branch is user-defined (paper: "the user writes
	// what happens if the probe fails"). Here failure takes a cheaper
	// approximation instead of the full work.
	src := `
var full;
var approx;
worker w(v) {
	lock(&full);
	full = full + v;
	unlock(&full);
}
func main() {
	coworker w(10) else { approx = approx + 1; }
	coworker w(10) else { approx = approx + 1; }
	join();
	print(full);
	print(approx);
}`
	granted := runCapC(t, src, 8)
	if granted.Output[0] != 20 || granted.Output[1] != 0 {
		t.Fatalf("granted run output = %v", granted.Output)
	}
	denied := runCapC(t, src, 1)
	if denied.Output[0] != 0 || denied.Output[1] != 2 {
		t.Fatalf("denied run output = %v", denied.Output)
	}
}

func TestTcntBuiltin(t *testing.T) {
	m := runCapC(t, `
worker w() {
	var spin = 0;
	while (spin < 50) { spin = spin + 1; }
}
func main() {
	print(tcnt());
	coworker w();
	join();
	print(tcnt());
}`, 8)
	if m.Output[0] != 1 || m.Output[len(m.Output)-1] != 1 {
		t.Fatalf("tcnt output = %v", m.Output)
	}
}

func TestStackPoolReuse(t *testing.T) {
	// Spawn far more workers over time than the pool holds; stacks must be
	// recycled via __cap_stack_put.
	m := runCapC(t, `
var acc;
worker w(v) {
	lock(&acc);
	acc = acc + v;
	unlock(&acc);
}
func main() {
	var i;
	for (i = 0; i < 200; i = i + 1) {
		coworker w(1);
	}
	join();
	print(acc);
}`, 6)
	if m.Output[0] != 200 {
		t.Fatalf("acc = %v", m.Output)
	}
	if m.DivGranted == 0 {
		t.Fatal("expected some divisions under 6 threads")
	}
}

func TestRuntimeHasNoDuplicateSymbols(t *testing.T) {
	if _, err := BuildCapC("t", `func main() {}`); err != nil {
		t.Fatalf("runtime should assemble cleanly: %v", err)
	}
}

// TestNumberLiteralBounds: the largest decimal literal is math.MaxInt64,
// and a 64-bit hex literal reads as two's complement.
func TestNumberLiteralBounds(t *testing.T) {
	m := runCapC(t, `func main() { print(9223372036854775807); print(0xFFFFFFFFFFFFFFFF); print(0x8000000000000000); }`, 1)
	want := []int64{9223372036854775807, -1, -9223372036854775808}
	if fmt.Sprint(m.Output) != fmt.Sprint(want) {
		t.Fatalf("output = %v, want %v", m.Output, want)
	}
}
