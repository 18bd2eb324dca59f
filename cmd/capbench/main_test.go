package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/doccmd"
	"repro/internal/exp"
)

// TestRun: a flag capbench lacks exits 2, -list prints the experiment
// IDs, every capbench command README.md documents parses (running -all
// would take 15 s), and -exp fig6 -dot draws the tree -exp fig6 lists,
// one edge per division its title counts, at quick and full scale.
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
	for _, scale := range [][]string{nil, {"-full"}} {
		out.Reset()
		if code := run(append([]string{"-exp", "fig6"}, scale...), &out, io.Discard); code != 0 {
			t.Fatalf("-exp fig6 %v: exit %d", scale, code)
		}
		m := regexp.MustCompile(`: (\d+) divisions ==`).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("-exp fig6 %v: no division count in\n%s", scale, out.String())
		}
		divs, _ := strconv.Atoi(m[1])
		out.Reset()
		if code := run(append([]string{"-exp", "fig6", "-dot"}, scale...), &out, io.Discard); code != 0 {
			t.Fatalf("-exp fig6 -dot %v: exit %d", scale, code)
		}
		if edges := strings.Count(out.String(), "->"); edges != divs || divs == 0 {
			t.Errorf("%v: -exp fig6 -dot draws %d edges, -exp fig6 lists %d divisions", scale, edges, divs)
		}
	}
}

// TestDocCommands parses, with capbench's own flag set, the capbench lines
// of README.md and the package comment's usage lines; it runs none of them.
func TestDocCommands(t *testing.T) {
	doccmd.Check(t, "capbench", 6, 0, func() *flag.FlagSet { fs, _ := newFlagSet(); return fs })
}
