package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestRun: a flag capbench lacks exits 2, -list prints the experiment
// IDs, and every capbench command README.md documents parses (running
// -all would take 15 s).
func TestRun(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-quick"}, &out, &out); code != 2 {
		t.Errorf("-quick: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"-list"}, &out, io.Discard); code != 0 || out.String() != strings.Join(exp.IDs(), "\n")+"\n" {
		t.Errorf("-list: exit %d:\n%s", code, out.String())
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cmds := regexp.MustCompile(`(?m)^go run \./cmd/capbench(.*)$`).FindAllStringSubmatch(string(readme), -1)
	if len(cmds) == 0 {
		t.Error("README.md documents no capbench command")
	}
	for _, c := range cmds { // -list wins, so the command is parsed, not run
		if code := run(append(strings.Fields(c[1]), "-list"), io.Discard, io.Discard); code != 0 {
			t.Errorf("README.md: %q: exit %d, want 0", c[0], code)
		}
	}
}
