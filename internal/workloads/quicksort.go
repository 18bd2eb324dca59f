package workloads

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// QuickSort is the paper's second distribution experiment (Fig. 5) and the
// source of the irregular division tree in Fig. 6. The component version
// partitions, spawns a co-worker on the left sub-list (probing the
// architecture) and keeps the right sub-list itself — an irregular division
// pattern because the pivot rarely splits evenly.

// ListKind enumerates the paper's "various distributions" of input lists.
type ListKind uint8

const (
	ListUniform ListKind = iota
	ListSorted
	ListReverse
	ListNearlySorted
	ListFewUnique
	ListGaussian
	numListKinds
)

func (k ListKind) String() string {
	switch k {
	case ListUniform:
		return "uniform"
	case ListSorted:
		return "sorted"
	case ListReverse:
		return "reverse"
	case ListNearlySorted:
		return "nearly-sorted"
	case ListFewUnique:
		return "few-unique"
	default:
		return "gaussian"
	}
}

// GenList generates one input list of the given kind.
func GenList(rng *rand.Rand, kind ListKind, n int) []int64 {
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	switch kind {
	case ListUniform:
		for i := range out {
			out[i] = rng.Int63n(1 << 30)
		}
	case ListSorted:
		for i := range out {
			out[i] = int64(i) * 3
		}
	case ListReverse:
		for i := range out {
			out[i] = int64(n-i) * 3
		}
	case ListNearlySorted:
		for i := range out {
			out[i] = int64(i) * 3
		}
		for s := 0; s < n/20+1; s++ {
			i, j := rng.Intn(n), rng.Intn(n)
			out[i], out[j] = out[j], out[i]
		}
	case ListFewUnique:
		for i := range out {
			out[i] = int64(rng.Intn(8))
		}
	default: // gaussian
		for i := range out {
			out[i] = int64(rng.NormFloat64()*1000) + (1 << 20)
		}
	}
	return out
}

// quickSortSrc emits CapC for either variant. Both use middle-element
// pivoting with a small insertion-sort cutoff; the component variant turns
// the left-half recursion into a conditional division.
func quickSortSrc(variant Variant, maxN int) string {
	header := fmt.Sprintf(`
const MAXN = %d;
var arr[MAXN];
var n;
`, maxN)

	body := `
%[1]s qsort(lo, hi) {
	while (hi - lo > 8) {
		// Middle-element pivot, Hoare partition.
		var p = arr[(lo + hi) / 2];
		var i = lo;
		var j = hi - 1;
		while (i <= j) {
			while (arr[i] < p) { i = i + 1; }
			while (arr[j] > p) { j = j - 1; }
			if (i <= j) {
				var tmp = arr[i];
				arr[i] = arr[j];
				arr[j] = tmp;
				i = i + 1;
				j = j - 1;
			}
		}
		%[2]s
		lo = i;
	}
	// Insertion sort for small runs.
	var k;
	for (k = lo + 1; k < hi; k = k + 1) {
		var v = arr[k];
		var m = k - 1;
		while (m >= lo) {
			if (arr[m] <= v) { break; }
			arr[m + 1] = arr[m];
			m = m - 1;
		}
		arr[m + 1] = v;
	}
	return 0;
}

func main() {
	qsort(0, n);
	%[3]s
}
`
	if variant == VariantComponent {
		return header + fmt.Sprintf(body,
			"worker",
			"coworker qsort(lo, j + 1);", // divide: a co-worker takes the left part
			"join();")
	}
	return header + fmt.Sprintf(body,
		"func",
		"qsort(lo, j + 1);",
		"")
}

// QuickSortProgram compiles (cached) the requested variant.
func QuickSortProgram(variant Variant, maxN int) (*prog.Program, error) {
	key := fmt.Sprintf("quicksort-%s-%d", variant, maxN)
	return cachedBuild(key, func() string { return quickSortSrc(variant, maxN) })
}

// QuickSortImage loads list into a fresh image of the variant's program:
// the image RunQuickSort simulates.
func QuickSortImage(list []int64, variant Variant) (*prog.Program, error) {
	base, err := QuickSortProgram(variant, capRound(len(list)))
	if err != nil {
		return nil, err
	}
	return image(base, scalar("g_n", len(list)), global{"g_arr", list})
}

// RunQuickSort simulates one list on one machine and checks that the
// array ends as the sorted permutation of the list.
func RunQuickSort(list []int64, variant Variant, cfg cpu.Config) (*core.RunResult, error) {
	p, err := QuickSortImage(list, variant)
	if err != nil {
		return nil, err
	}
	return simulate(p, cfg, stored("quicksort", "g_arr", slices.Sorted(slices.Values(list))))
}
