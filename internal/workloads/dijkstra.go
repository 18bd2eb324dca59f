package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// Dijkstra is the paper's running example (Figs. 1-3): single-source
// shortest paths over a random directed graph with weighted edges.
//
// The component version is the Fig. 1 algorithm: a worker walks the graph
// carrying its path length; at each node it either improves the recorded
// distance (and keeps exploring the children, dividing when the probe
// succeeds) or dies because it is on a sub-optimal path. The monotone
// relaxation makes the result independent of worker interleaving.
//
// The imperative version is the "Normal" central-selection algorithm the
// superscalar baseline runs.

// DijkstraInput is one generated data set.
type DijkstraInput struct {
	N      int // nodes
	Source int
	EOff   []int32 // CSR offsets, len N+1
	EDst   []int32
	EWgt   []int32
}

// GenGraph generates a random connected-ish directed graph with out-degree
// in [1,maxDeg] and weights in [1,maxW].
func GenGraph(rng *rand.Rand, n, maxDeg, maxW int) *DijkstraInput {
	in := &DijkstraInput{N: n, Source: 0, EOff: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		in.EOff[u] = int32(len(in.EDst))
		deg := 1 + rng.Intn(maxDeg)
		for d := 0; d < deg; d++ {
			v := rng.Intn(n)
			// A forward bias keeps most of the graph reachable from 0.
			if rng.Intn(4) != 0 && u+1 < n {
				v = u + 1 + rng.Intn(n-u-1)
			}
			in.EDst = append(in.EDst, int32(v))
			in.EWgt = append(in.EWgt, int32(1+rng.Intn(maxW)))
		}
	}
	in.EOff[n] = int32(len(in.EDst))
	return in
}

// DijkstraInf is the distance sentinel (matches the CapC INF constant).
const DijkstraInf = int64(1) << 40

// RefDijkstra computes reference distances.
func RefDijkstra(in *DijkstraInput) []int64 {
	dist := make([]int64, in.N)
	for i := range dist {
		dist[i] = DijkstraInf
	}
	dist[in.Source] = 0
	visited := make([]bool, in.N)
	for {
		u, best := -1, DijkstraInf
		for v := 0; v < in.N; v++ {
			if !visited[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return dist
		}
		visited[u] = true
		for e := in.EOff[u]; e < in.EOff[u+1]; e++ {
			v, w := in.EDst[e], int64(in.EWgt[e])
			if dist[u]+w < dist[v] {
				dist[v] = dist[u] + w
			}
		}
	}
}

// dijkstraSrc emits the CapC source sized for capacity (maxN nodes, maxE
// edges). The component variant divides at each child edge; the imperative
// variant is the central-selection loop.
func dijkstraSrc(variant Variant, maxN, maxE int) string {
	common := fmt.Sprintf(`
const MAXN = %d;
const MAXE = %d;
const INF = %d;
var n;
var src;
var dist[MAXN];
var eoff[MAXN + 1];
var edst[MAXE];
var ewgt[MAXE];
`, maxN, maxE, DijkstraInf)

	if variant == VariantImperative {
		return common + `
var visited[MAXN];

func main() {
	var i;
	for (i = 0; i < n; i = i + 1) { dist[i] = INF; visited[i] = 0; }
	dist[src] = 0;
	while (1) {
		var u = 0 - 1;
		var best = INF;
		var v;
		for (v = 0; v < n; v = v + 1) {
			if (visited[v] == 0) {
				if (dist[v] < best) { u = v; best = dist[v]; }
			}
		}
		if (u < 0) { break; }
		visited[u] = 1;
		var e;
		var lo = eoff[u];
		var hi = eoff[u + 1];
		for (e = lo; e < hi; e = e + 1) {
			var nd = best + ewgt[e];
			var w = edst[e];
			if (nd < dist[w]) { dist[w] = nd; }
		}
	}
}
`
	}
	return common + `
worker explore(node, d) {
	lock(dist + node * 8);
	if (d >= dist[node]) {
		// Sub-optimal path: this worker dies (Fig. 1, path A.C.E).
		unlock(dist + node * 8);
		return 0;
	}
	dist[node] = d;
	unlock(dist + node * 8);
	var e;
	var lo = eoff[node];
	var hi = eoff[node + 1];
	for (e = lo; e < hi; e = e + 1) {
		// Probe the architecture at every child path (Fig. 2).
		coworker explore(edst[e], d + ewgt[e]);
	}
	return 0;
}

func main() {
	var i;
	for (i = 0; i < n; i = i + 1) { dist[i] = INF; }
	explore(src, 0);
	join();
}
`
}

// DijkstraProgram compiles (cached) the requested variant with capacity for
// in.
func DijkstraProgram(variant Variant, maxN, maxE int) (*prog.Program, error) {
	key := fmt.Sprintf("dijkstra-%s-%d-%d", variant, maxN, maxE)
	return cachedBuild(key, func() string { return dijkstraSrc(variant, maxN, maxE) })
}

// dijkstraImage loads in into a fresh image of the variant's program.
func dijkstraImage(in *DijkstraInput, variant Variant) (*prog.Program, error) {
	base, err := DijkstraProgram(variant, capRound(in.N), capRound(len(in.EDst)))
	if err != nil {
		return nil, err
	}
	return image(base, scalar("g_n", in.N), scalar("g_src", in.Source),
		global{"g_eoff", words(in.EOff)}, global{"g_edst", words(in.EDst)}, global{"g_ewgt", words(in.EWgt)})
}

// RunDijkstra simulates one data set on one machine and validates the
// distances against the Go reference.
func RunDijkstra(in *DijkstraInput, variant Variant, cfg cpu.Config) (*core.RunResult, error) {
	p, err := dijkstraImage(in, variant)
	if err != nil {
		return nil, err
	}
	return simulate(p, cfg, stored("dijkstra", "g_dist", RefDijkstra(in)))
}

// capRound rounds a capacity up to a small set of sizes so the build cache
// stays effective across data sets of similar size.
func capRound(n int) int {
	for _, c := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		if n <= c {
			return c
		}
	}
	return n
}
