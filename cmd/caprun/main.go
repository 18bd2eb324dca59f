// Command caprun runs one workload natively on the goroutine capsule
// runtime (internal/capsule) and prints wall time and CAPSULE statistics.
// It is the native-execution twin of cmd/capsim: same workload names,
// same input generators, same -n/-seed meaning — but real parallel
// execution instead of cycle-level simulation.
//
// Usage:
//
//	caprun -workload dijkstra -n 2000 -seed 7
//	caprun -workload quicksort -n 100000 -workers 4
//	caprun -workload lzw -n 65536 -stats
//	caprun -workload perceptron -n 4096 -throttle=false
//	caprun -workload quicksort -n 100000 -json   # machine-readable, for CI diffs
//	caprun -workload lzw -n 1048576 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/capsule"
	"repro/internal/profiling"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "caprun: %v\n", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload, cpuprofile, memprofile string
	n, workers                       int
	seed                             int64
	throttle, stats, json            bool
	window                           time.Duration
}

// newFlagSet defines every flag of the command, once: run parses its
// arguments with it, and TestDocCommands each documented command line.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("caprun", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "dijkstra", strings.Join(workloads.NativeNames(), "|"))
	fs.IntVar(&o.n, "n", 2000, "input size (nodes/elements/chars/neurons)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.workers, "workers", 0, "context pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&o.throttle, "throttle", true, "death-rate division throttling")
	fs.DurationVar(&o.window, "window", 100*time.Microsecond, "death-rate window")
	fs.BoolVar(&o.stats, "stats", false, "print full statistics")
	fs.BoolVar(&o.json, "json", false, "emit one machine-readable JSON object instead of text")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (covers the native run)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	return fs, o
}

// run is the whole command: it parses args, runs the workload on one
// Group of a fresh runtime, checks its checksum against the Go reference
// and writes the report to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs, o := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}

	if o.n <= 0 {
		return fmt.Errorf("-n must be > 0 (got %d)", o.n)
	}
	stopCPU, err := profiling.StartCPU(o.cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()
	defer func() {
		if herr := profiling.WriteHeap(o.memprofile); err == nil {
			err = herr
		}
	}()

	rt, err := capsule.NewValidated(capsule.Config{
		Contexts:    o.workers,
		Throttle:    o.throttle,
		DeathWindow: o.window,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	// RunRequest joins the group before it returns, so every offer and
	// worker death of the run is in the runtime's Stats.
	res, err := workloads.RunRequest(rt.NewGroup(), o.workload, o.n, o.seed)
	if err != nil {
		return err
	}
	want, err := workloads.RefRequest(o.workload, o.n, o.seed)
	if err != nil {
		return err
	}
	if res.Checksum != want {
		return fmt.Errorf("native %s: checksum %d, Go reference %d", o.workload, res.Checksum, want)
	}
	output := fmt.Sprintf("%s (checksum %d)", res.Output, res.Checksum)

	s := rt.Stats()
	if o.json {
		return json.NewEncoder(stdout).Encode(struct {
			Workload   string        `json:"workload"`
			N          int           `json:"n"`
			Seed       int64         `json:"seed"`
			Workers    int           `json:"workers"`
			GOMAXPROCS int           `json:"gomaxprocs"`
			Output     string        `json:"output"`
			ElapsedNS  int64         `json:"elapsed_ns"`
			Stats      capsule.Stats `json:"stats"`
		}{o.workload, o.n, o.seed, rt.Contexts(), runtime.GOMAXPROCS(0),
			output, res.ElapsedNS, s})
	}
	fmt.Fprintf(stdout, "workload=%s n=%d seed=%d workers=%d gomaxprocs=%d\n",
		o.workload, o.n, o.seed, rt.Contexts(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "result: %s (validated against Go reference)\n", output)
	fmt.Fprintf(stdout, "elapsed=%s\n", time.Duration(res.ElapsedNS))
	fmt.Fprintf(stdout, "divisions: probes=%d granted=%d (%.0f%%)\n",
		s.Probes, s.Granted, 100*s.GrantRate())
	if o.stats {
		fmt.Fprintf(stdout, "denies: no-ctx=%d throttle=%d\n", s.NoCtxDenies, s.ThrottleDenies)
		fmt.Fprintf(stdout, "workers: total=%d peak=%d deaths=%d\n", s.TotalWorkers, s.PeakWorkers, s.Deaths)
		fmt.Fprintf(stdout, "locks: acquires=%d\n", s.LockAcquires)
	}
	return nil
}
