package workloads

import (
	"fmt"
	"time"

	"repro/internal/capsule"
)

// This file is the serving-shaped entry point into the native workloads:
// a request names a workload and its input (n, seed), RunRequest executes
// it on whatever capsule.Domain the server admitted it to — a per-request
// Group when a context was free at admission, the Sequential domain when
// the request was degraded — and the result serialises straight to JSON.
//
// Unlike RunNative, the hot path does not re-validate against the Go
// references on every call (native_test.go owns cross-validation); it
// returns a deterministic checksum instead, so clients can assert that
// the same (workload, n, seed) always yields the same answer regardless
// of load, degradation or worker interleaving.

// Input-generation parameters shared by RunNative, RunRequest and
// cmd/capsim: the single source of each generator's shape, so the
// "same (workload, n, seed) names the same input everywhere" contract
// cannot drift between the serving and validation paths.
const (
	GenDijkstraMaxDeg   = 4
	GenDijkstraMaxW     = 9
	GenPerceptronPats   = 3
	GenPerceptronEpochs = 1
)

// ServeResult is one served workload execution, shaped for JSON.
type ServeResult struct {
	Workload  string `json:"workload"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	Output    string `json:"output"`
	Checksum  uint64 `json:"checksum"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// RunRequest executes one native workload on dom with inputs generated
// exactly like RunNative and cmd/capsim (same generators, same meaning of
// n and seed). Input generation is excluded from ElapsedNS; the checksum
// is a pure function of (workload, n, seed).
func RunRequest(dom capsule.Domain, workload string, n int, seed int64) (*ServeResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("n must be > 0 (got %d)", n)
	}
	rng := NewRand(seed)
	res := &ServeResult{Workload: workload, N: n, Seed: seed}
	switch workload {
	case "quicksort":
		list := GenList(rng, ListUniform, n)
		start := time.Now()
		got := NativeQuickSort(dom, list)
		res.ElapsedNS = time.Since(start).Nanoseconds()
		res.Checksum = checksum(got)
		res.Output = fmt.Sprintf("sorted %d elements", len(got))
	case "dijkstra":
		in := GenGraph(rng, n, GenDijkstraMaxDeg, GenDijkstraMaxW)
		start := time.Now()
		got := NativeDijkstra(dom, in)
		res.ElapsedNS = time.Since(start).Nanoseconds()
		res.Checksum = checksum(got)
		res.Output = fmt.Sprintf("distances over %d nodes", in.N)
	case "lzw":
		in := GenLZW(rng, n)
		start := time.Now()
		got := NativeLZW(dom, in)
		res.ElapsedNS = time.Since(start).Nanoseconds()
		res.Checksum = uint64(got)
		res.Output = fmt.Sprintf("emitted %d codes for %d symbols", got, len(in.Text))
	case "perceptron":
		in := GenPerceptron(rng, n, GenPerceptronPats, GenPerceptronEpochs)
		start := time.Now()
		gotW, gotM := NativePerceptron(dom, in)
		res.ElapsedNS = time.Since(start).Nanoseconds()
		res.Checksum = checksum(gotW)*1099511628211 ^ uint64(gotM)
		res.Output = fmt.Sprintf("trained %d neurons, %d mistakes", in.Neurons, gotM)
	default:
		return nil, fmt.Errorf("unknown native workload %q (have %v)", workload, NativeNames())
	}
	return res, nil
}
