// Package profiling is cmd/caprun's -cpuprofile/-memprofile plumbing,
// so hot-path regressions can be diagnosed without editing code.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// StartCPU begins a CPU profile written to path and returns the stop
// function to defer (and to call explicitly ahead of any os.Exit, which
// skips defers; stopping twice is harmless). An empty path is a no-op.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

// WriteHeap snapshots the heap into path (no-op when empty), after a GC
// so the profile shows live objects, not garbage awaiting collection.
// Like StartCPU's stop, it is safe to call more than once: each call
// just refreshes the file.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("write heap profile: %w", err)
	}
	return nil
}
