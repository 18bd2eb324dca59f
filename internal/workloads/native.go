package workloads

import (
	"sync/atomic"

	"repro/internal/capsule"
)

// This file holds the native twins of the paper's four core component
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
// the worker returns. Dijkstra offers once per settled node where the
// CapC source offers at every edge: each worker takes the shortest entry
// of its own frontier first, so a worker on its own settles each node
// once; a settled node with at least two out-edges offers the upper half
// of its edge range, and a refused worker relaxes every edge itself.
//
// All four return results validated against the Go references
// (sort order, RefDijkstra, RefLZWMatch, RefPerceptron) by native_test.go,
// and, through RunRequest's checksum and its twin RefRequest, by
// cmd/caprun and FuzzRunRequest.

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

// NativeDijkstra runs the Fig. 1 worker algorithm on dom: a worker
// improves a node's locked distance or dies. Each worker keeps its own
// frontier and takes its shortest entry first, so on one worker every
// node is settled once, as in RefDijkstra. A popped entry whose length
// is no longer the node's distance is stale and dies. A live one offers
// the node's edges once where the CapC program probes at every child
// path (Fig. 2): if the node has at least two out-edges and the probe is
// granted, a co-worker relaxes the upper half of the edge range into a
// frontier of its own and walks that; this worker relaxes the rest. A
// relaxation that improves a node's distance pushes the node. The
// monotone relaxation makes the returned distances equal to RefDijkstra
// under any interleaving, and so under any split.
func NativeDijkstra(dom capsule.Domain, in *DijkstraInput) []int64 {
	dist := make([]int64, in.N)
	for i := range dist {
		dist[i] = DijkstraInf
	}
	// relax relaxes the targets of edges [lo, hi) at path length d plus
	// each edge's weight, pushing each target it improves onto f.
	relax := func(f *frontier, lo, hi int32, d int64) {
		for e := lo; e < hi; e++ {
			v, nd := in.EDst[e], d+int64(in.EWgt[e])
			dom.Lock(uint64(v))
			better := nd < dist[v]
			if better {
				dist[v] = nd
			}
			dom.Unlock(uint64(v))
			if better {
				f.push(nd, v)
			}
		}
	}
	var settle func(f *frontier)
	settle = func(f *frontier) {
		for len(*f) > 0 {
			d, u := f.pop()
			dom.Lock(uint64(u))
			stale := d != dist[u]
			dom.Unlock(uint64(u))
			if stale {
				// A shorter path reached u first: this worker's path
				// dies (Fig. 1, path A.C.E).
				continue
			}
			lo, hi := in.EOff[u], in.EOff[u+1]
			if hi-lo >= 2 {
				if c, ok := dom.Probe(); ok {
					mid, end := lo+(hi-lo)/2, hi
					dom.Spawn(c, func() {
						var g frontier
						relax(&g, mid, end, d)
						settle(&g)
					})
					hi = mid
				}
			}
			relax(f, lo, hi, d)
		}
	}
	// On its own, the owner pushes the source and at most once per edge,
	// so its frontier never grows past this.
	f := make(frontier, 0, len(in.EDst)+1)
	dist[in.Source] = 0
	f.push(0, int32(in.Source))
	settle(&f)
	dom.Join()
	return dist
}

// frontier is one Dijkstra worker's shortest-first queue: a binary
// min-heap of entries ordered by path length. It is hand-rolled because
// container/heap boxes every entry it is handed.
type frontier []frontierEntry

// A frontierEntry is a node and the path length it was pushed with.
type frontierEntry struct {
	d    int64
	node int32
}

// push adds node at path length d.
func (f *frontier) push(d int64, node int32) {
	h := append(*f, frontierEntry{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= d {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = frontierEntry{d, node}
	*f = h
}

// pop removes and returns the entry with the shortest path length; f
// must not be empty.
func (f *frontier) pop() (int64, int32) {
	h := *f
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].d < h[c].d {
				c++
			}
			if last.d <= h[c].d {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*f = h
	return top.d, top.node
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
