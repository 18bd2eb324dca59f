package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// MCF is the 181.mcf proxy. In the paper "the component replaces a
// sequential tree traversal (for route planning) with a parallel tree
// search", with division tested at every tree node (the highest division
// rate in Table 3), and the componentised section covers ~45% of execution.
//
// The proxy searches a binary cost tree for the cheapest root-to-leaf path
// (the route-planning kernel) and embeds it in a pointer-chasing sequential
// remainder (mcf is memory-latency-bound), sized so the component section
// is roughly the paper's share of superscalar execution time.

// MCFInput is one instance.
type MCFInput struct {
	// Binary tree in arrays; Left/Right are child ids or -1.
	Left, Right []int32
	Cost        []int64
	// Sequential part: a shuffled singly linked list walked SeqRounds
	// times.
	ListNext  []int32
	ListVal   []int64
	SeqRounds int
}

// GenMCF generates a random tree with the given number of internal levels
// (not necessarily complete) and a shuffled list for the sequential phase.
func GenMCF(rng *rand.Rand, nodes, listLen, seqRounds int) *MCFInput {
	in := &MCFInput{SeqRounds: seqRounds}
	in.Left = make([]int32, nodes)
	in.Right = make([]int32, nodes)
	in.Cost = make([]int64, nodes)
	for i := 0; i < nodes; i++ {
		in.Cost[i] = int64(1 + rng.Intn(100))
		l, r := 2*i+1, 2*i+2
		// Each child is kept with probability 7/8; a leaf has no children
		// at all. The root keeps both, so every instance has a parallel
		// section, yet makes the draws it always made: no other node moves.
		keepL := l < nodes && rng.Intn(8) != 0
		keepR := r < nodes && keepL && rng.Intn(8) != 0
		if i == 0 {
			keepL, keepR = l < nodes, r < nodes
		}
		in.Left[i], in.Right[i] = -1, -1
		if keepL {
			in.Left[i] = int32(l)
		}
		if keepR {
			in.Right[i] = int32(r)
		}
	}
	// Shuffled circular-ish list.
	perm := rng.Perm(listLen)
	in.ListNext = make([]int32, listLen)
	in.ListVal = make([]int64, listLen)
	for i := 0; i < listLen; i++ {
		in.ListNext[perm[i]] = int32(perm[(i+1)%listLen])
		in.ListVal[i] = int64(rng.Intn(1000))
	}
	return in
}

// RefMCF returns (best path cost, sequential checksum).
func RefMCF(in *MCFInput) (int64, int64) {
	var walk func(n int32, acc int64) int64
	walk = func(n int32, acc int64) int64 {
		acc += in.Cost[n]
		if in.Left[n] < 0 {
			return acc
		}
		best := walk(in.Left[n], acc)
		if in.Right[n] >= 0 {
			if r := walk(in.Right[n], acc); r < best {
				best = r
			}
		}
		return best
	}
	best := walk(0, 0)

	var sum int64
	p := int32(0)
	for r := 0; r < in.SeqRounds*len(in.ListNext); r++ {
		sum += in.ListVal[p]
		sum ^= sum << 3
		p = in.ListNext[p]
	}
	return best, sum
}

func mcfSrc(variant Variant, maxNodes, maxList int) string {
	common := fmt.Sprintf(`
const MAXN = %d;
const MAXL = %d;
const INF = %d;
var nnodes;
var left[MAXN];
var right[MAXN];
var cost[MAXN];
var best;
var listlen;
var seqrounds;
var lnext[MAXL];
var lval[MAXL];
var checksum;
const MARKSTART = %d;
const MARKEND = %d;

func seqphase() {
	var sum = 0;
	var p = 0;
	var r = seqrounds * listlen;
	while (r > 0) {
		sum = sum + lval[p];
		sum = sum ^ (sum << 3);
		p = lnext[p];
		r = r - 1;
	}
	checksum = sum;
	return 0;
}
`, maxNodes, maxList, DijkstraInf, core.MarkSectionStart, core.MarkSectionEnd)

	tree := `
%[1]s tmin(node, acc) {
	while (1) {
		acc = acc + cost[node];
		var l = left[node];
		if (l < 0) {
			lock(&best);
			if (acc < best) { best = acc; }
			unlock(&best);
			return 0;
		}
		var r = right[node];
		if (r >= 0) {
			%[2]s
		}
		node = l;
	}
	return 0;
}

func main() {
	best = INF;
	seqphase();
	print(MARKSTART);
	tmin(0, 0);
	%[3]s
	print(MARKEND);
	print(best);
	print(checksum);
}
`
	if variant == VariantComponent {
		return common + fmt.Sprintf(tree, "worker",
			"coworker tmin(r, acc);", // division tested at every tree node
			"join();")
	}
	return common + fmt.Sprintf(tree, "func", "tmin(r, acc);", "")
}

// MCFProgram compiles (cached) the requested variant.
func MCFProgram(variant Variant, maxNodes, maxList int) (*prog.Program, error) {
	key := fmt.Sprintf("mcf-%s-%d-%d", variant, maxNodes, maxList)
	return cachedBuild(key, func() string { return mcfSrc(variant, maxNodes, maxList) })
}

// RunMCF simulates one instance and checks the printed best path cost and
// sequential checksum.
func RunMCF(in *MCFInput, variant Variant, cfg cpu.Config) (*core.RunResult, error) {
	base, err := MCFProgram(variant, capRound(len(in.Left)), capRound(len(in.ListNext)))
	if err != nil {
		return nil, err
	}
	p, err := image(base, scalar("g_nnodes", len(in.Left)), scalar("g_listlen", len(in.ListNext)), scalar("g_seqrounds", in.SeqRounds),
		global{"g_left", words(in.Left)}, global{"g_right", words(in.Right)}, global{"g_cost", in.Cost},
		global{"g_lnext", words(in.ListNext)}, global{"g_lval", in.ListVal})
	if err != nil {
		return nil, err
	}
	best, sum := RefMCF(in)
	return simulate(p, cfg, printed("mcf", best, sum))
}
