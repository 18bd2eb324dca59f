package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/doccmd"
)

// statsGolden is capsim's full -stats report at -n 200 -seed 3 for the four
// programs internal/workloads' TestTimingStatsGolden does not run (vpr and
// crafty take no size from -n). A change to how the simulator is
// implemented must leave every line as it is.
var statsGolden = []struct{ workload, arch, want string }{
	{"mcf", "somt", `workload=mcf arch=somt n=200 seed=3
cycles=5223 insts=10230 ipc=1.96
divisions: requested=53 allowed=19 (36%) deaths=19
throttle denies=5 no-ctx denies=29
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=92 stall-cycles=302
branches: 82.7% accuracy, 116 mispredicts
caches: L1I 0.6% miss, L1D 16.0% miss, L2 53.4% miss
occupancy: avg active contexts 2.10, peak live workers 8, total workers 20
`},
	{"mcf", "superscalar", `workload=mcf arch=superscalar n=200 seed=3
cycles=6554 insts=9580 ipc=1.46
divisions: requested=0 allowed=0 (0%) deaths=0
throttle denies=0 no-ctx denies=0
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=54 stall-cycles=0
branches: 85.4% accuracy, 79 mispredicts
caches: L1I 0.9% miss, L1D 11.9% miss, L2 68.3% miss
occupancy: avg active contexts 1.00, peak live workers 1, total workers 1
`},
	{"vpr", "somt", `iterations: 1 (converged=true)
workload=vpr arch=somt n=200 seed=3
cycles=351738 insts=2683832 ipc=7.63
divisions: requested=21963 allowed=2193 (10%) deaths=2193
throttle denies=365 no-ctx denies=19405
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=26353 stall-cycles=11618
branches: 83.9% accuracy, 16857 mispredicts
caches: L1I 0.0% miss, L1D 15.2% miss, L2 1.4% miss
occupancy: avg active contexts 7.22, peak live workers 8, total workers 2194
`},
	{"vpr", "superscalar", `iterations: 1 (converged=true)
workload=vpr arch=superscalar n=200 seed=3
cycles=2250314 insts=12223490 ipc=5.43
divisions: requested=0 allowed=0 (0%) deaths=0
throttle denies=0 no-ctx denies=0
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=105178 stall-cycles=0
branches: 94.3% accuracy, 19741 mispredicts
caches: L1I 0.0% miss, L1D 10.2% miss, L2 0.2% miss
occupancy: avg active contexts 1.00, peak live workers 1, total workers 1
`},
	{"bzip2", "somt", `workload=bzip2 arch=somt n=200 seed=3
cycles=51240 insts=303158 ipc=5.92
divisions: requested=54 allowed=35 (65%) deaths=35
throttle denies=0 no-ctx denies=19
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=70 stall-cycles=0
branches: 87.5% accuracy, 2619 mispredicts
caches: L1I 0.1% miss, L1D 2.3% miss, L2 11.1% miss
occupancy: avg active contexts 3.98, peak live workers 8, total workers 36
`},
	{"bzip2", "superscalar", `workload=bzip2 arch=superscalar n=200 seed=3
cycles=82256 insts=302085 ipc=3.67
divisions: requested=0 allowed=0 (0%) deaths=0
throttle denies=0 no-ctx denies=0
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=0 stall-cycles=0
branches: 89.5% accuracy, 2170 mispredicts
caches: L1I 0.1% miss, L1D 0.3% miss, L2 65.5% miss
occupancy: avg active contexts 1.00, peak live workers 1, total workers 1
`},
	{"crafty", "somt", `workload=crafty arch=somt n=200 seed=3
cycles=57000 insts=440765 ipc=7.73
divisions: requested=7 allowed=7 (100%) deaths=7
throttle denies=0 no-ctx denies=0
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=93 stall-cycles=1414
branches: 79.1% accuracy, 3233 mispredicts
caches: L1I 0.0% miss, L1D 1.4% miss, L2 11.9% miss
occupancy: avg active contexts 7.83, peak live workers 8, total workers 8
`},
	{"crafty", "superscalar", `workload=crafty arch=superscalar n=200 seed=3
cycles=84931 insts=433859 ipc=5.11
divisions: requested=0 allowed=0 (0%) deaths=0
throttle denies=0 no-ctx denies=0
swaps out=0 in=0 rescues=0 max stack=0
locks: acquires=8 stall-cycles=0
branches: 87.9% accuracy, 1781 mispredicts
caches: L1I 0.0% miss, L1D 0.1% miss, L2 83.0% miss
occupancy: avg active contexts 1.00, peak live workers 1, total workers 1
`},
}

func TestStatsGolden(t *testing.T) {
	for _, tc := range statsGolden {
		t.Run(tc.workload+"/"+tc.arch, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", tc.workload, "-arch", tc.arch, "-n", "200", "-seed", "3", "-stats"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if got := stdout.String(); got != tc.want {
				t.Errorf("report drifted\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestUnknownArch: a typo in -arch exits 1 and names the machines that
// exist.
func TestUnknownArch(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-arch", "vliw"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), strings.Join(knownArchs, ", ")) {
		t.Errorf("stderr does not list the known archs: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty: %q", stdout.String())
	}
}

// TestDocCommands parses, with the command's own flag set, every
// documented capsim line: a documented command must name only flags that
// exist. It runs none of them.
func TestDocCommands(t *testing.T) {
	doccmd.Check(t, "capsim", 4, 0, func() *flag.FlagSet { fs, _ := newFlagSet(); return fs })
}
