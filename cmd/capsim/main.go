// Command capsim runs one workload data set on one machine and prints the
// run's cycle count and CAPSULE statistics.
//
// Usage:
//
//	capsim -workload dijkstra -arch somt -n 200 -seed 7
//	capsim -workload quicksort -arch superscalar
//	capsim -workload lzw -arch somt -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workloads"
)

// knownWorkloads and knownArchs drive both the flag help and the error
// messages, so a typo tells the user what would have worked.
var (
	knownWorkloads = []string{"dijkstra", "quicksort", "lzw", "perceptron", "mcf", "vpr", "bzip2", "crafty"}
	knownArchs     = []string{"somt", "smt", "smt-static", "superscalar"}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, simulates the workload, writes
// the report to stdout and any error to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "dijkstra", strings.Join(knownWorkloads, "|"))
	arch := fs.String("arch", "somt", strings.Join(knownArchs, "|"))
	n := fs.Int("n", 200, "input size (nodes/elements/chars/neurons), must be > 0")
	seed := fs.Int64("seed", 1, "input seed")
	stats := fs.Bool("stats", false, "print full statistics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "capsim: "+format+"\n", args...)
		return 1
	}

	if *n <= 0 {
		return fail("-n must be > 0 (got %d)", *n)
	}

	var cfg cpu.Config
	variant := workloads.VariantComponent
	switch *arch {
	case "somt":
		cfg = cpu.SOMTConfig()
	case "smt":
		cfg = cpu.SMTConfig()
	case "smt-static":
		cfg = cpu.SMTStaticConfig()
	case "superscalar":
		cfg = cpu.SuperscalarConfig()
		variant = workloads.VariantImperative
	default:
		return fail("unknown arch %q (known: %s)", *arch, strings.Join(knownArchs, ", "))
	}

	rng := workloads.NewRand(*seed)
	var res *core.RunResult
	var err error
	switch *workload {
	case "dijkstra":
		res, err = workloads.RunDijkstra(workloads.GenGraph(rng, *n, workloads.GenDijkstraMaxDeg, workloads.GenDijkstraMaxW), variant, cfg)
	case "quicksort":
		res, err = workloads.RunQuickSort(workloads.GenList(rng, workloads.ListUniform, *n), variant, cfg)
	case "lzw":
		res, err = workloads.RunLZW(workloads.GenLZW(rng, *n), variant, cfg)
	case "perceptron":
		res, err = workloads.RunPerceptron(workloads.GenPerceptron(rng, *n, workloads.GenPerceptronPats, workloads.GenPerceptronEpochs), variant, cfg)
	case "mcf":
		res, err = workloads.RunMCF(workloads.GenMCF(rng, *n, *n/4+16, 2), variant, cfg)
	case "bzip2":
		res, err = workloads.RunBzip2(workloads.GenBzip2(rng, *n, 3), variant, cfg)
	case "crafty":
		res, err = workloads.RunCrafty(workloads.GenCrafty(rng, 4, 8, 7), variant, cfg)
	case "vpr":
		side := 12
		var vres *workloads.VPRResult
		vres, err = workloads.RunVPR(workloads.GenVPR(rng, side, side, 4, 10), variant, cfg)
		if err == nil {
			res = vres.Run
			fmt.Fprintf(stdout, "iterations: %d (converged=%v)\n", vres.Iterations, vres.Converged)
		}
	default:
		return fail("unknown workload %q (known: %s)", *workload, strings.Join(knownWorkloads, ", "))
	}
	if err != nil {
		return fail("%v", err)
	}

	s := res.Stats
	fmt.Fprintf(stdout, "workload=%s arch=%s n=%d seed=%d\n", *workload, *arch, *n, *seed)
	fmt.Fprintf(stdout, "cycles=%d insts=%d ipc=%.2f\n", s.Cycles, s.Insts, s.IPC())
	fmt.Fprintf(stdout, "divisions: requested=%d allowed=%d (%.0f%%) deaths=%d\n",
		s.DivRequested, s.DivGranted, 100*s.DivGrantRate(), s.Deaths)
	if *stats {
		fmt.Fprintf(stdout, "throttle denies=%d no-ctx denies=%d\n", s.ThrottleDenies, s.NoCtxDenies)
		fmt.Fprintf(stdout, "swaps out=%d in=%d rescues=%d max stack=%d\n", s.SwapsOut, s.SwapsIn, s.Rescues, s.MaxStackDepth)
		fmt.Fprintf(stdout, "locks: acquires=%d stall-cycles=%d\n", s.LockAcquires, s.LockStallCycles)
		fmt.Fprintf(stdout, "branches: %.1f%% accuracy, %d mispredicts\n", 100*s.BranchStats.Accuracy(), s.MispredictedBranches)
		fmt.Fprintf(stdout, "caches: L1I %.1f%% miss, L1D %.1f%% miss, L2 %.1f%% miss\n",
			100*s.L1I.MissRate(), 100*s.L1D.MissRate(), 100*s.L2.MissRate())
		fmt.Fprintf(stdout, "occupancy: avg active contexts %.2f, peak live workers %d, total workers %d\n",
			s.AvgActiveContexts(), s.PeakLiveThreads, s.TotalThreads)
	}
	return 0
}
