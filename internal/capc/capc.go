// Package capc implements the CapC compiler: the reproduction of the
// paper's component toolchain. CapC is a small component-C dialect (Section
// 3.2): ordinary functions plus `worker` functions that may be spawned
// conditionally with `coworker`, which the compiler expands into the
// probe+spawn switch of Fig. 2 and lowers to the nthr instruction.
//
// The pipeline is Parse -> Check -> Gen, packaged behind Compile. The
// generated assembly links against the capsule runtime (internal/core),
// which provides _start, the worker stack pool and the heap allocator.
package capc

// Compiled is the result of compiling one CapC unit.
type Compiled struct {
	// Asm is the generated assembly, ready for asm.Assemble together with
	// the capsule runtime unit.
	Asm string
	// File is the resolved AST; PreProcess(File) renders the Fig. 2(b)
	// listing of it, for the callers that read one.
	File *File
	// Workers lists the worker functions in declaration order.
	Workers []string
}

// Compile parses, checks and lowers a CapC source unit.
func Compile(name, src string) (*Compiled, error) {
	f, err := Parse(name, src)
	if err != nil {
		return nil, err
	}
	if err := Check(f); err != nil {
		return nil, err
	}
	asmText, err := Gen(f)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Asm: asmText, File: f}
	for _, fn := range f.Funcs {
		if fn.Worker {
			c.Workers = append(c.Workers, fn.Name)
		}
	}
	return c, nil
}
