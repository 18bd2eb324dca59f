package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// LZW is one of the two Fig. 7 workloads. The paper's component version
// "recursively splits the initial sequence of N = 4096 characters it must
// match into two sequences of N/2 characters in order to parallelize the
// search": many tiny workers, each matching a small piece of the sequence
// against the dictionary, with frequent division opportunities — the
// workload that motivates division throttling.
//
// Substitution detail: the dictionary here is a
// static trie built by the input generator (an LZ78-style dictionary frozen
// after a warm-up pass). Matching a chunk against a read-only trie is
// deterministic under any worker interleaving, which lets every run be
// validated exactly against the Go reference; the dynamic behaviour Fig. 7
// measures (tiny workers + constant probing) is unchanged.

// LZWChunk is the match-work quantum in characters. Deliberately tiny: the
// paper's point is that components this small need the throttle.
const LZWChunk = 8

// lzwAlpha is the symbol alphabet size.
const lzwAlpha = 8

// LZWInput is one matching problem: symbols plus a static dictionary trie.
type LZWInput struct {
	Text []byte // symbols in [0, lzwAlpha)
	// Trie: node 0 is the root; Next[node*lzwAlpha+sym] is the child node
	// id or -1. Every node is a dictionary entry.
	Next []int32
}

// GenLZW generates a skewed random symbol text and builds an LZ78-style
// dictionary trie from a warm-up prefix, then freezes it.
func GenLZW(rng *rand.Rand, n int) *LZWInput {
	text := make([]byte, n)
	for i := range text {
		// Skewed distribution: symbol 0 most common.
		r := rng.Intn(16)
		switch {
		case r < 7:
			text[i] = 0
		case r < 11:
			text[i] = 1
		case r < 13:
			text[i] = 2
		default:
			text[i] = byte(3 + rng.Intn(lzwAlpha-3))
		}
	}
	in := &LZWInput{Text: text}
	in.Next = []int32{}
	newNode := func() int32 {
		id := int32(len(in.Next) / lzwAlpha)
		for i := 0; i < lzwAlpha; i++ {
			in.Next = append(in.Next, -1)
		}
		return id
	}
	root := newNode()
	_ = root
	// LZ78 warm-up over the first half: insert each phrase.
	limit := n / 2
	node := int32(0)
	for p := 0; p < limit; p++ {
		s := int32(text[p])
		if c := in.Next[node*lzwAlpha+s]; c >= 0 {
			node = c
			continue
		}
		if len(in.Next)/lzwAlpha < 2048 {
			in.Next[node*lzwAlpha+s] = newNode()
		}
		node = 0
	}
	return in
}

// RefLZWMatch counts the codes emitted when greedily matching text against
// the trie in independent chunks of the given size (matches do not cross
// chunk boundaries), exactly like the CapC program.
func RefLZWMatch(in *LZWInput, chunk int) int64 {
	var codes int64
	n := len(in.Text)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
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
	}
	return codes
}

// lzwSrc emits the CapC source. The component worker constantly offers the
// upper half of its remaining range to a co-worker (one probe per chunk of
// work when saturated); on probe failure it matches one chunk itself. The
// native twin (NativeLZW) offers at a grain instead: after a refusal it
// matches up to divGrain symbols, chunk by chunk, before it offers again.
func lzwSrc(variant Variant, maxN, maxTrie int) string {
	common := fmt.Sprintf(`
const MAXN = %d;
const MAXTRIE = %d;
const ALPHA = %d;
const CHUNK = %d;
var text[MAXN];
var trie[MAXTRIE];
var n;
var total;

func matchChunk(lo, hi) {
	var codes = 0;
	var p = lo;
	while (p < hi) {
		var node = 0;
		while (p < hi) {
			var c = trie[node * ALPHA + text[p]];
			if (c < 0) { break; }
			node = c;
			p = p + 1;
		}
		if (node == 0) { p = p + 1; }
		codes = codes + 1;
	}
	lock(&total);
	total = total + codes;
	unlock(&total);
	return 0;
}
`, maxN, maxTrie, lzwAlpha, LZWChunk)

	if variant == VariantImperative {
		return common + `
func main() {
	var lo = 0;
	while (lo < n) {
		var hi = lo + CHUNK;
		if (hi > n) { hi = n; }
		matchChunk(lo, hi);
		lo = hi;
	}
	print(total);
}
`
	}
	return common + `
worker lzw(lo, hi) {
	while (hi - lo > CHUNK) {
		// Offer the upper half (chunk-aligned) to a co-worker.
		var mid = lo + (((hi - lo) / 2 + CHUNK - 1) / CHUNK) * CHUNK;
		if (mid >= hi) { break; }
		var denied = 0;
		coworker lzw(mid, hi) else { denied = 1; }
		if (denied) {
			// Probe failed: match one chunk ourselves, probe again.
			matchChunk(lo, lo + CHUNK);
			lo = lo + CHUNK;
		} else {
			hi = mid;
		}
	}
	if (lo < hi) { matchChunk(lo, hi); }
	return 0;
}

func main() {
	lzw(0, n);
	join();
	print(total);
}
`
}

// LZWProgram compiles (cached) the requested variant.
func LZWProgram(variant Variant, maxN, maxTrie int) (*prog.Program, error) {
	key := fmt.Sprintf("lzw-%s-%d-%d", variant, maxN, maxTrie)
	return cachedBuild(key, func() string { return lzwSrc(variant, maxN, maxTrie) })
}

// lzwImage loads in into a fresh image of the variant's program.
func lzwImage(in *LZWInput, variant Variant) (*prog.Program, error) {
	base, err := LZWProgram(variant, capRound(len(in.Text)), capRound(len(in.Next)))
	if err != nil {
		return nil, err
	}
	return image(base, scalar("g_n", len(in.Text)), global{"g_text", words(in.Text)}, global{"g_trie", words(in.Next)})
}

// RunLZW simulates one matching problem and checks the printed code count.
func RunLZW(in *LZWInput, variant Variant, cfg cpu.Config) (*core.RunResult, error) {
	p, err := lzwImage(in, variant)
	if err != nil {
		return nil, err
	}
	return simulate(p, cfg, printed("lzw", RefLZWMatch(in, LZWChunk)))
}
