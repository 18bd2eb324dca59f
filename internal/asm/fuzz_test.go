package asm

import (
	"testing"

	"repro/internal/prog"
)

// FuzzAssemble feeds arbitrary text to the assembler: it must return a
// program or an error, never panic or run away, and a program's data image
// must fit between DataBase and the heap.
func FuzzAssemble(f *testing.F) {
	f.Add("main:\n\tli a0, 70000\n\tprint a0\n\thalt\n")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Assemble(Unit{Name: "f.s", Text: s})
		if err != nil {
			return
		}
		if uint64(len(p.Data)) > prog.HeapBase-prog.DataBase {
			t.Fatalf("%d-byte data image overlaps the heap", len(p.Data))
		}
	})
}
