package capc_test

import (
	"testing"

	"repro/internal/capc"
	"repro/internal/core"
)

// FuzzCompile feeds raw source text to the front end. Nothing may panic,
// and a program Compile accepts must also assemble with the runtime: the
// assembler rejecting generated code is a compiler bug, not a user
// error. The seed corpus (testdata/fuzz/FuzzCompile) is the workloads'
// own CapC programs, both variants.
func FuzzCompile(f *testing.F) {
	f.Add("worker w(a) { print(a); }\nfunc main() { coworker w(5) else { print(0); } join(); }\n")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := capc.Compile("fuzz.capc", src); err != nil {
			return
		}
		if _, err := core.BuildCapC("fuzz.capc", src); err != nil {
			t.Fatalf("compiled, but: %v", err)
		}
	})
}
