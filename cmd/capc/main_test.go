package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// prog is a tiny component program: two coworker offers, a join, and a
// line of output from each worker and from main.
const prog = `
worker w(a) { print(a); }
func main() {
	coworker w(5);
	coworker w(7);
	join();
	print(12);
}
`

// capc runs the command and returns its exit status, stdout and stderr.
func capc(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func source(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.capc")
	if err := os.WriteFile(path, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var statsLine = regexp.MustCompile(`^cycles=\d+ insts=\d+ ipc=\d+\.\d\d divisions=(\d+)/(\d+)\n$`)

func TestRun(t *testing.T) {
	path := source(t)
	code, out, errOut := capc("-run", "-arch", "somt", path)
	if code != 0 {
		t.Fatalf("-run exit %d, stderr %q", code, errOut)
	}
	// Both offers are granted on SOMT, so the workers' lines may come in
	// either order, but before main's after the join.
	if lines := strings.Fields(out); len(lines) != 3 || lines[0]+lines[1] != "57" && lines[0]+lines[1] != "75" || lines[2] != "12" {
		t.Errorf("output %q, want 5 and 7 in either order, then 12", out)
	}
	if m := statsLine.FindStringSubmatch(errOut); m == nil || m[1] != "2" || m[2] != "2" {
		t.Errorf("stderr %q, want the stats line with divisions=2/2", errOut)
	}
}

func TestStages(t *testing.T) {
	path := source(t)
	for flag, header := range map[string]string{
		"-pre": "// pre-processed (Fig. 2(b) stage)\n",
		"-S":   "# post-processed assembly (Fig. 2(c) stage)\n",
	} {
		code, out, errOut := capc(flag, path)
		if code != 0 || !strings.HasPrefix(out, header) || len(out) == len(header) {
			t.Errorf("%s: exit %d, stdout %.80q, stderr %q", flag, code, out, errOut)
		}
	}
	if code, out, errOut := capc(path); code != 0 || out != "" || !strings.Contains(errOut, "compiled OK") {
		t.Errorf("no stage flag: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

func TestExitCodes(t *testing.T) {
	path := source(t)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2}, // no file
		{[]string{"-nope", path}, 2},
		{[]string{path, path}, 2},
		{[]string{"-run", "-arch", "vliw", path}, 1},
		{[]string{filepath.Join(t.TempDir(), "missing.capc")}, 1},
	} {
		if code, _, errOut := capc(tc.args...); code != tc.want {
			t.Errorf("capc %v = %d, want %d (stderr %q)", tc.args, code, tc.want, errOut)
		}
	}
}
