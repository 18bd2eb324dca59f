package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// Bzip2 is the 256.bzip2 proxy: "the component targets the string sorting
// process" of the block-sorting compressor, which the paper componentised
// for ~20% of execution time.
//
// The proxy performs a bounded-depth suffix sort of a text block (the BWT
// kernel) with a componentised quicksort over suffix indices — string
// comparisons bounded at CmpDepth with the index as tiebreak, giving a
// deterministic total order — and spends the remaining ~80% in a
// sequential entropy-coding-style pass (rolling checksum with shifts and
// table lookups, like bzip2's Huffman/CRC phases).

// Bzip2CmpDepth bounds suffix comparisons.
const Bzip2CmpDepth = 12

// Bzip2Input is one block instance.
type Bzip2Input struct {
	Block     []byte // symbols in [0, 16)
	SeqRounds int    // sequential-phase passes over the block
}

// GenBzip2 generates a compressible block.
func GenBzip2(rng *rand.Rand, n, seqRounds int) *Bzip2Input {
	b := make([]byte, n)
	// Runs of repeated symbols (post-RLE bzip2 blocks still have heavy
	// local structure).
	i := 0
	for i < n {
		sym := byte(rng.Intn(16))
		run := 1 + rng.Intn(6)
		for r := 0; r < run && i < n; r++ {
			b[i] = sym
			i++
		}
	}
	return &Bzip2Input{Block: b, SeqRounds: seqRounds}
}

// refSuffixLess is the bounded-depth circular suffix order with index
// tiebreak (a strict total order).
func refSuffixLess(block []byte, a, b int) bool {
	n := len(block)
	for k := 0; k < Bzip2CmpDepth; k++ {
		ca, cb := block[(a+k)%n], block[(b+k)%n]
		if ca != cb {
			return ca < cb
		}
	}
	return a < b
}

// RefBzip2 returns (sorted suffix order fingerprint, sequential checksum).
func RefBzip2(in *Bzip2Input) (int64, int64) {
	n := len(in.Block)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return refSuffixLess(in.Block, idx[i], idx[j]) })
	var fp int64
	for i, v := range idx {
		fp = fp*1000003 + int64(v)*31 + int64(i)
		fp ^= fp >> 7
	}

	var sum int64
	for r := 0; r < in.SeqRounds; r++ {
		for _, c := range in.Block {
			sum = sum + int64(c)
			sum = sum ^ (sum << 5)
			sum = sum ^ (sum >> 11)
		}
	}
	return fp, sum
}

func bzip2Src(variant Variant, maxN int) string {
	common := fmt.Sprintf(`
const MAXN = %d;
const DEPTH = %d;
var block[MAXN];
var idx[MAXN];
var n;
var seqrounds;
var checksum;
const MARKSTART = %d;
const MARKEND = %d;

// sufless: bounded-depth circular suffix compare with index tiebreak.
func sufless(a, b) {
	var k;
	for (k = 0; k < DEPTH; k = k + 1) {
		var pa = a + k;
		if (pa >= n) { pa = pa - n; }
		var pb = b + k;
		if (pb >= n) { pb = pb - n; }
		var ca = block[pa];
		var cb = block[pb];
		if (ca != cb) { return ca < cb; }
	}
	return a < b;
}

func seqphase() {
	var sum = 0;
	var r;
	for (r = 0; r < seqrounds; r = r + 1) {
		var i;
		for (i = 0; i < n; i = i + 1) {
			sum = sum + block[i];
			sum = sum ^ (sum << 5);
			sum = sum ^ (sum >> 11);
		}
	}
	checksum = sum;
	return 0;
}
`, maxN, Bzip2CmpDepth, core.MarkSectionStart, core.MarkSectionEnd)

	sortBody := `
%[1]s ssort(lo, hi) {
	while (hi - lo > 6) {
		var p = idx[(lo + hi) / 2];
		var i = lo;
		var j = hi - 1;
		while (i <= j) {
			while (sufless(idx[i], p)) { i = i + 1; }
			while (sufless(p, idx[j])) { j = j - 1; }
			if (i <= j) {
				var tmp = idx[i];
				idx[i] = idx[j];
				idx[j] = tmp;
				i = i + 1;
				j = j - 1;
			}
		}
		%[2]s
		lo = i;
	}
	var k;
	for (k = lo + 1; k < hi; k = k + 1) {
		var v = idx[k];
		var m = k - 1;
		while (m >= lo) {
			if (sufless(idx[m], v)) { break; }
			idx[m + 1] = idx[m];
			m = m - 1;
		}
		idx[m + 1] = v;
	}
	return 0;
}

func main() {
	var i;
	for (i = 0; i < n; i = i + 1) { idx[i] = i; }
	print(MARKSTART);
	ssort(0, n);
	%[3]s
	print(MARKEND);
	seqphase();
	var fp = 0;
	for (i = 0; i < n; i = i + 1) {
		fp = fp * 1000003 + idx[i] * 31 + i;
		fp = fp ^ (fp >> 7);
	}
	print(fp);
	print(checksum);
}
`
	if variant == VariantComponent {
		return common + fmt.Sprintf(sortBody, "worker", "coworker ssort(lo, j + 1);", "join();")
	}
	return common + fmt.Sprintf(sortBody, "func", "ssort(lo, j + 1);", "")
}

// Bzip2Program compiles (cached) the requested variant.
func Bzip2Program(variant Variant, maxN int) (*prog.Program, error) {
	key := fmt.Sprintf("bzip2-%s-%d", variant, maxN)
	return cachedBuild(key, func() string { return bzip2Src(variant, maxN) })
}

// RunBzip2 simulates one block and checks the printed suffix-order
// fingerprint and sequential checksum.
func RunBzip2(in *Bzip2Input, variant Variant, cfg cpu.Config) (*core.RunResult, error) {
	base, err := Bzip2Program(variant, capRound(len(in.Block)))
	if err != nil {
		return nil, err
	}
	p, err := image(base, scalar("g_n", len(in.Block)), scalar("g_seqrounds", in.SeqRounds), global{"g_block", words(in.Block)})
	if err != nil {
		return nil, err
	}
	fp, sum := RefBzip2(in)
	return simulate(p, cfg, printed("bzip2", fp, sum))
}
