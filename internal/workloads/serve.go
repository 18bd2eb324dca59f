package workloads

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/capsule"
)

// This file is the one entry point into the native workloads: a request
// names a workload and its input (n, seed), RunRequest executes it on
// whatever capsule.Domain its caller chose — a Group when a context was
// free at admission (or caprun's one group), the Sequential domain when
// the request was degraded — and the result serialises straight to JSON.
//
// RunRequest does not re-validate against the Go references on every
// call; it returns a deterministic checksum instead, so clients can
// assert that the same (workload, n, seed) always yields the same answer
// regardless of load, degradation or worker interleaving. RefRequest is
// its reference twin: the same inputs solved by the Go references, with
// the same checksum, which caprun and the tests check against.

// Input-generation parameters shared by RunRequest, RefRequest and
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

// RunRequest executes one native workload on dom (never nil) with inputs
// generated exactly like RefRequest and cmd/capsim (same generators, same
// meaning of n and seed). Input generation is excluded from ElapsedNS; the
// checksum is a pure function of (workload, n, seed).
func RunRequest(dom capsule.Domain, workload string, n int, seed int64) (*ServeResult, error) {
	return request(dom, workload, n, seed)
}

// RefRequest is RunRequest's reference twin: the checksum RunRequest
// returns for (workload, n, seed), computed from the same inputs by the
// Go references — slices.Sort, RefDijkstra, RefLZWMatch and
// RefPerceptron — on no runtime at all.
func RefRequest(workload string, n int, seed int64) (uint64, error) {
	res, err := request(nil, workload, n, seed)
	if err != nil {
		return 0, err
	}
	return res.Checksum, nil
}

// request is RunRequest and RefRequest in one, so each workload's
// generator, pair of solvers and checksum formula are written once: it
// solves the generated input on dom, or by the Go reference when dom is
// nil.
func request(dom capsule.Domain, workload string, n int, seed int64) (*ServeResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("n must be > 0 (got %d)", n)
	}
	rng := NewRand(seed)
	res := &ServeResult{Workload: workload, N: n, Seed: seed}
	switch workload {
	case "quicksort":
		list := GenList(rng, ListUniform, n)
		solve(dom, res, func(d capsule.Domain) { list = NativeQuickSort(d, list) }, func() { slices.Sort(list) })
		res.Checksum = checksum(list)
		res.Output = fmt.Sprintf("sorted %d elements", len(list))
	case "dijkstra":
		in := GenGraph(rng, n, GenDijkstraMaxDeg, GenDijkstraMaxW)
		var dist []int64
		solve(dom, res, func(d capsule.Domain) { dist = NativeDijkstra(d, in) }, func() { dist = RefDijkstra(in) })
		res.Checksum = checksum(dist)
		res.Output = fmt.Sprintf("distances over %d nodes", in.N)
	case "lzw":
		in := GenLZW(rng, n)
		var codes int64
		solve(dom, res, func(d capsule.Domain) { codes = NativeLZW(d, in) }, func() { codes = RefLZWMatch(in, LZWChunk) })
		res.Checksum = uint64(codes)
		res.Output = fmt.Sprintf("emitted %d codes for %d symbols", codes, len(in.Text))
	case "perceptron":
		in := GenPerceptron(rng, n, GenPerceptronPats, GenPerceptronEpochs)
		var w []int64
		var mistakes int64
		solve(dom, res, func(d capsule.Domain) { w, mistakes = NativePerceptron(d, in) }, func() { w, mistakes = RefPerceptron(in) })
		res.Checksum = checksum(w)*1099511628211 ^ uint64(mistakes)
		res.Output = fmt.Sprintf("trained %d neurons, %d mistakes", in.Neurons, mistakes)
	default:
		return nil, fmt.Errorf("unknown native workload %q (have %v)", workload, NativeNames())
	}
	return res, nil
}

// solve runs native on dom and times it into res.ElapsedNS, or runs the
// Go reference ref untimed when dom is nil.
func solve(dom capsule.Domain, res *ServeResult, native func(capsule.Domain), ref func()) {
	if dom == nil {
		ref()
		return
	}
	start := time.Now()
	native(dom)
	res.ElapsedNS = time.Since(start).Nanoseconds()
}
