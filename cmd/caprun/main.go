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

// run is the whole command: it parses args, runs the workload and writes
// the report to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("caprun", flag.ContinueOnError)
	workload := fs.String("workload", "dijkstra", strings.Join(workloads.NativeNames(), "|"))
	n := fs.Int("n", 2000, "input size (nodes/elements/chars/neurons)")
	seed := fs.Int64("seed", 1, "input seed")
	workers := fs.Int("workers", 0, "context pool size (0 = GOMAXPROCS)")
	throttle := fs.Bool("throttle", true, "death-rate division throttling")
	window := fs.Duration("window", 100*time.Microsecond, "death-rate window")
	stats := fs.Bool("stats", false, "print full statistics")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON object instead of text")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (covers the native run)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *n <= 0 {
		return fmt.Errorf("-n must be > 0 (got %d)", *n)
	}
	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()
	defer func() {
		if herr := profiling.WriteHeap(*memprofile); err == nil {
			err = herr
		}
	}()

	rt, err := capsule.NewValidated(capsule.Config{
		Contexts:    *workers,
		Throttle:    *throttle,
		DeathWindow: *window,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	res, err := workloads.RunNative(rt, *workload, *n, *seed)
	if err != nil {
		return err
	}

	s := res.Stats
	if *jsonOut {
		return json.NewEncoder(stdout).Encode(struct {
			Workload   string        `json:"workload"`
			N          int           `json:"n"`
			Seed       int64         `json:"seed"`
			Workers    int           `json:"workers"`
			GOMAXPROCS int           `json:"gomaxprocs"`
			Output     string        `json:"output"`
			ElapsedNS  int64         `json:"elapsed_ns"`
			Stats      capsule.Stats `json:"stats"`
		}{*workload, *n, *seed, rt.Contexts(), runtime.GOMAXPROCS(0),
			res.Output, res.Elapsed.Nanoseconds(), s})
	}
	fmt.Fprintf(stdout, "workload=%s n=%d seed=%d workers=%d gomaxprocs=%d\n",
		*workload, *n, *seed, rt.Contexts(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "result: %s (validated against Go reference)\n", res.Output)
	fmt.Fprintf(stdout, "elapsed=%s\n", res.Elapsed)
	fmt.Fprintf(stdout, "divisions: probes=%d granted=%d (%.0f%%)\n",
		s.Probes, s.Granted, 100*s.GrantRate())
	if *stats {
		fmt.Fprintf(stdout, "denies: no-ctx=%d throttle=%d\n", s.NoCtxDenies, s.ThrottleDenies)
		fmt.Fprintf(stdout, "workers: total=%d peak=%d deaths=%d\n", s.TotalWorkers, s.PeakWorkers, s.Deaths)
		fmt.Fprintf(stdout, "locks: acquires=%d\n", s.LockAcquires)
	}
	return nil
}
