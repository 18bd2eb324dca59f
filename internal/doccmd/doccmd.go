// Package doccmd holds a command's documented command lines to its flag
// set, for the tests of the binaries under cmd/.
package doccmd

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Check parses every name command line — "name …" or "go run ./cmd/name
// …" — in a fenced block of README.md and docs/*.md and on a usage line
// ("//" and a tab) of the command's main.go, each with a fresh flag set
// from newFlagSet, and fails t on one that names an unknown flag or has
// other than args positional arguments after its flags; it runs none of
// them. A trailing backslash continues a line, # starts a comment, and
// &, | and ; separate commands. Fewer than least commands found fails t
// too. Call it from a test in cmd/name.
func Check(t testing.TB, name string, least, args int, newFlagSet func() *flag.FlagSet) {
	t.Helper()
	cmd := regexp.MustCompile(`^(go run \./cmd/)?` + regexp.QuoteMeta(name) + `( |$)`)
	found := 0
	check := func(path, line string) {
		line, _, _ = strings.Cut(line, "#")
		for _, c := range strings.FieldsFunc(line, func(r rune) bool { return strings.ContainsRune("&|;", r) }) {
			if c = strings.TrimSpace(c); cmd.MatchString(c) {
				found++
				fs := newFlagSet()
				fs.SetOutput(io.Discard)
				if err := fs.Parse(strings.Fields(cmd.ReplaceAllString(c, ""))); err != nil || fs.NArg() != args {
					t.Errorf("%s: %q: %v %q", path, c, err, fs.Args())
				}
			}
		}
	}
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(string(b), "\\\n", " ")
	}
	docs, _ := filepath.Glob("../../docs/*.md")
	for _, path := range append(docs, "../../README.md") {
		fenced := false
		for _, line := range strings.Split(read(path), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if fenced {
				check(path, line)
			}
		}
	}
	for _, line := range strings.Split(read("main.go"), "\n") {
		if rest, ok := strings.CutPrefix(line, "//\t"); ok {
			check("main.go", rest)
		}
	}
	if found < least {
		t.Errorf("found %d documented %s commands, want at least %d", found, name, least)
	}
}
