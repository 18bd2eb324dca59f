package workloads

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/capsule"
)

// This file implements VariantNative: the paper's four core component
// algorithms — QuickSort, Dijkstra, LZW and Perceptron — running on real
// goroutines via the internal/capsule probe/divide runtime instead of the
// cycle-level simulator. Each function mirrors the CapC component source
// in the sibling file site for site (the division points are the same
// `coworker` sites), and each is written so the result is a pure
// function of the input regardless of worker interleaving: QuickSort
// divides disjoint sub-ranges, Dijkstra's relaxation is monotone under
// per-node locks, LZW sums per-chunk code counts, and Perceptron's
// reductions are exact integer sums.
//
// The three range-shaped sites offer at a grain where the CapC sources
// offer at every chunk. The SOMT answers a probe in a few cycles and
// hands a division over in a few more; software pays a refused probe and
// a goroutine hand-off, so an offer has to carry more work than that.
// QuickSort offers only sub-ranges of at least divGrain elements, and a
// refused LZW or Perceptron worker does up to divGrain symbols or
// neurons of its own work before it offers again. LZW and the forward
// dot product also sum per worker and add to the shared total once, when
// the worker returns. Dijkstra has no range to size, so it still offers
// at every edge.
//
// All four return results validated against the Go references
// (sort order, RefDijkstra, RefLZWMatch, RefPerceptron) by native_test.go
// and by the Run* wrappers used from cmd/caprun.

// qsNativeCutoff matches the CapC program's insertion-sort cutoff.
const qsNativeCutoff = 8

// divGrain is the work, in elements, symbols or neurons, that an offer
// has to be worth: QuickSort offers no smaller sub-range, and a refused
// LZW or Perceptron worker does this much before it offers again. A sweep
// of 64, 512 and 4096 (CHANGES.md) picked 512. It is a multiple of
// LZWChunk, so LZW keeps its chunk boundaries.
const divGrain = 512

// NativeQuickSort sorts a copy of list on dom and returns it. Division
// points mirror quickSortSrc: after each Hoare partition the left
// sub-range is offered to a co-worker while the caller keeps the right,
// if it holds at least divGrain elements.
func NativeQuickSort(dom capsule.Domain, list []int64) []int64 {
	out := append([]int64(nil), list...)
	nativeQSort(dom, out, 0, len(out))
	dom.Join()
	return out
}

func nativeQSort(dom capsule.Domain, arr []int64, lo, hi int) {
	for hi-lo > qsNativeCutoff {
		// Middle-element pivot, Hoare partition.
		p := arr[(lo+hi)/2]
		i, j := lo, hi-1
		for i <= j {
			for arr[i] < p {
				i++
			}
			for arr[j] > p {
				j--
			}
			if i <= j {
				arr[i], arr[j] = arr[j], arr[i]
				i++
				j--
			}
		}
		// Divide: a co-worker takes the left part [lo, j+1); we keep
		// [i, hi). The ranges are disjoint (j < i), so parent and child
		// never touch the same element. Below the grain, or refused, we
		// sort it ourselves.
		if j+1-lo < divGrain {
			nativeQSort(dom, arr, lo, j+1)
		} else if c, ok := dom.Probe(); ok {
			left, right := lo, j+1
			dom.Spawn(c, func() { nativeQSort(dom, arr, left, right) })
		} else {
			nativeQSort(dom, arr, lo, j+1)
		}
		lo = i
	}
	// Insertion sort for small runs.
	for k := lo + 1; k < hi; k++ {
		v := arr[k]
		m := k - 1
		for m >= lo && arr[m] > v {
			arr[m+1] = arr[m]
			m--
		}
		arr[m+1] = v
	}
}

// NativeDijkstra runs the Fig. 1 worker algorithm on dom: each worker
// carries its path length, improves the locked per-node distance or dies,
// and probes the runtime at every child edge. The monotone relaxation
// makes the returned distances equal to RefDijkstra under any
// interleaving.
func NativeDijkstra(dom capsule.Domain, in *DijkstraInput) []int64 {
	dist := make([]int64, in.N)
	for i := range dist {
		dist[i] = DijkstraInf
	}
	var explore func(node int32, d int64)
	explore = func(node int32, d int64) {
		dom.Lock(uint64(node))
		if d >= dist[node] {
			// Sub-optimal path: this worker dies (Fig. 1, path A.C.E).
			dom.Unlock(uint64(node))
			return
		}
		dist[node] = d
		dom.Unlock(uint64(node))
		for e := in.EOff[node]; e < in.EOff[node+1]; e++ {
			// Probe the architecture at every child path (Fig. 2).
			v, nd := in.EDst[e], d+int64(in.EWgt[e])
			if c, ok := dom.Probe(); ok {
				dom.Spawn(c, func() { explore(v, nd) })
			} else {
				explore(v, nd)
			}
		}
	}
	explore(int32(in.Source), 0)
	dom.Join()
	return dist
}

// NativeLZW matches in.Text against the frozen trie in chunk-aligned
// pieces and returns the emitted code count, equal to
// RefLZWMatch(in, LZWChunk). The worker constantly offers the upper half
// of its remaining range — the paper's throttle-motivating pattern. The
// CapC worker matches one chunk after a refusal and probes again; this
// one matches up to divGrain symbols, still chunk by chunk, so the code
// count is the same. Each worker counts its own codes and adds them to
// the total once, when it returns.
func NativeLZW(dom capsule.Domain, in *LZWInput) int64 {
	var total atomic.Int64
	var worker func(lo, hi int)
	worker = func(lo, hi int) {
		var codes int64
		for hi-lo > LZWChunk {
			// Offer the upper half (chunk-aligned) to a co-worker.
			mid := lo + ((hi-lo)/2+LZWChunk-1)/LZWChunk*LZWChunk
			if mid >= hi {
				break
			}
			if c, ok := dom.Probe(); ok {
				m, h := mid, hi
				dom.Spawn(c, func() { worker(m, h) })
				hi = mid
			} else {
				// Probe failed: match a grain ourselves, probe again.
				end := min(lo+divGrain, hi)
				codes += lzwMatchChunks(in, lo, end)
				lo = end
			}
		}
		total.Add(codes + lzwMatchChunks(in, lo, hi))
	}
	worker(0, len(in.Text))
	dom.Join()
	return total.Load()
}

// lzwMatchChunks matches [lo, hi) in LZWChunk pieces, lo chunk-aligned,
// and returns the number of codes emitted.
func lzwMatchChunks(in *LZWInput, lo, hi int) int64 {
	var codes int64
	for ; lo < hi; lo += LZWChunk {
		codes += lzwMatchRange(in, lo, min(lo+LZWChunk, hi))
	}
	return codes
}

// lzwMatchRange greedily matches [lo, hi) against the trie and returns
// the number of codes emitted — the native matchChunk.
func lzwMatchRange(in *LZWInput, lo, hi int) int64 {
	var codes int64
	p := lo
	for p < hi {
		node := int32(0)
		for p < hi {
			c := in.Next[node*lzwAlpha+int32(in.Text[p])]
			if c < 0 {
				break
			}
			node = c
			p++
		}
		if node == 0 {
			p++ // unknown symbol: emit a literal
		}
		codes++
	}
	return codes
}

// NativePerceptron trains the perceptron on dom and returns the final
// weights and mistake count, equal to RefPerceptron(in). The forward dot
// product and the weight update halve their neuron range at every probe,
// the paper's Fig. 7 pattern; partial sums are exact integer adds and
// update ranges are disjoint, so the result is interleaving-independent.
// A refused worker does up to divGrain neurons before it offers again
// (the CapC worker does one chunk), and each forward worker adds its
// partial sum to the shared accumulator once, when it returns.
func NativePerceptron(dom capsule.Domain, in *PerceptronInput) (w []int64, mistakes int64) {
	w = append([]int64(nil), in.W0...)
	var acc atomic.Int64

	var forward func(lo, hi int, x []int64)
	forward = func(lo, hi int, x []int64) {
		var sum int64
		for hi-lo > PerceptronChunk {
			mid := (lo + hi) / 2
			if c, ok := dom.Probe(); ok {
				m, h := mid, hi
				dom.Spawn(c, func() { forward(m, h, x) })
				hi = mid
			} else {
				end := min(lo+divGrain, hi)
				sum += dotQ8(w, x, lo, end)
				lo = end
			}
		}
		acc.Add(sum + dotQ8(w, x, lo, hi))
	}
	var update func(lo, hi int, x []int64, t int64)
	update = func(lo, hi int, x []int64, t int64) {
		for hi-lo > PerceptronChunk {
			mid := (lo + hi) / 2
			if c, ok := dom.Probe(); ok {
				m, h := mid, hi
				dom.Spawn(c, func() { update(m, h, x, t) })
				hi = mid
			} else {
				end := min(lo+divGrain, hi)
				updQ8(w, x, t, lo, end)
				lo = end
			}
		}
		updQ8(w, x, t, lo, hi)
	}

	for e := 0; e < in.Epochs; e++ {
		for p := 0; p < in.Patterns; p++ {
			acc.Store(0)
			forward(0, in.Neurons, in.X[p])
			dom.Join()
			pred := int64(1)
			if acc.Load() < 0 {
				pred = -1
			}
			if pred != in.Y[p] {
				mistakes++
				update(0, in.Neurons, in.X[p], in.Y[p])
				dom.Join()
			}
		}
	}
	return w, mistakes
}

func dotQ8(w, x []int64, lo, hi int) int64 {
	var s int64
	for i := lo; i < hi; i++ {
		s += (w[i] * x[i]) >> 8
	}
	return s
}

func updQ8(w, x []int64, t int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		w[i] += (t * x[i]) >> 4
	}
}

// NativeNames lists the workloads with a native implementation, in the
// order cmd/caprun documents them.
func NativeNames() []string {
	return []string{"quicksort", "dijkstra", "lzw", "perceptron"}
}

// NativeResult is one native run: the headline output value, the wall
// time of the native execution alone (input generation and reference
// validation excluded), and the runtime statistics accumulated during
// the run.
type NativeResult struct {
	Workload string
	Output   string // human-readable headline (checksum, code count, ...)
	Elapsed  time.Duration
	Stats    capsule.Stats
}

// RunNative executes one native workload on rt with inputs generated the
// same way cmd/capsim generates them (same generator, same meaning of n
// and seed), validates the result against the Go reference, and reports
// the stats delta across the run — so a shared runtime's cumulative
// counters are left untouched and the result still covers only this run.
func RunNative(rt *capsule.Runtime, workload string, n int, seed int64) (*NativeResult, error) {
	// NewRand(seed), not RandFor, like every tool that takes -seed: the
	// same -workload/-n/-seed triple names the same input in all of them
	// and their outputs are directly comparable.
	rng := NewRand(seed)
	before := rt.Stats()
	res := &NativeResult{Workload: workload}
	timed := func(fn func()) {
		start := time.Now()
		fn()
		res.Elapsed = time.Since(start)
	}
	switch workload {
	case "quicksort":
		list := GenList(rng, ListUniform, n)
		var got []int64
		timed(func() { got = NativeQuickSort(rt, list) })
		want := append([]int64(nil), list...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("native quicksort: arr[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		res.Output = fmt.Sprintf("sorted %d elements (checksum %d)", len(got), checksum(got))
	case "dijkstra":
		in := GenGraph(rng, n, GenDijkstraMaxDeg, GenDijkstraMaxW)
		var got []int64
		timed(func() { got = NativeDijkstra(rt, in) })
		want := RefDijkstra(in)
		for v := range want {
			if got[v] != want[v] {
				return nil, fmt.Errorf("native dijkstra: dist[%d] = %d, want %d", v, got[v], want[v])
			}
		}
		res.Output = fmt.Sprintf("distances over %d nodes (checksum %d)", in.N, checksum(got))
	case "lzw":
		in := GenLZW(rng, n)
		var got int64
		timed(func() { got = NativeLZW(rt, in) })
		if want := RefLZWMatch(in, LZWChunk); got != want {
			return nil, fmt.Errorf("native lzw: total codes = %d, want %d", got, want)
		}
		res.Output = fmt.Sprintf("emitted %d codes for %d symbols", got, len(in.Text))
	case "perceptron":
		in := GenPerceptron(rng, n, GenPerceptronPats, GenPerceptronEpochs)
		var gotW []int64
		var gotM int64
		timed(func() { gotW, gotM = NativePerceptron(rt, in) })
		wantW, wantM := RefPerceptron(in)
		if gotM != wantM {
			return nil, fmt.Errorf("native perceptron: mistakes = %d, want %d", gotM, wantM)
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				return nil, fmt.Errorf("native perceptron: w[%d] = %d, want %d", i, gotW[i], wantW[i])
			}
		}
		res.Output = fmt.Sprintf("trained %d neurons, %d mistakes (weight checksum %d)", in.Neurons, gotM, checksum(gotW))
	default:
		return nil, fmt.Errorf("unknown native workload %q (have %v)", workload, NativeNames())
	}
	res.Stats = rt.Stats().Delta(before)
	return res, nil
}

// checksum is an order-sensitive 64-bit digest for compact output
// comparison.
func checksum(xs []int64) uint64 {
	var h uint64 = 1469598103934665603
	for _, x := range xs {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}
