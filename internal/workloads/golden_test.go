package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// goldenCase is one simulated run whose complete cpu.Stats and output are
// pinned: a change to how the simulator is implemented must leave every
// simulated number exactly where it was.
type goldenCase struct {
	name    string
	prog    string // quicksort | dijkstra | lzw | perceptron
	variant Variant
	n       int
	seed    int64 // input seed, as capsim's -seed
	cfg     func() cpu.Config
	want    cpu.Stats
	sum     uint64 // outputSum of the run
}

func somtWith(edit func(*cpu.Config)) func() cpu.Config {
	return func() cpu.Config {
		c := cpu.SOMTConfig()
		edit(&c)
		return c
	}
}

// swapForcing makes the context stack do real work: a thread that sees
// one slower-than-average load, over a window this short, is evicted.
func swapForcing(contexts, window int) func() cpu.Config {
	return somtWith(func(c *cpu.Config) {
		c.Contexts = contexts
		c.SwapThreshold = 1
		c.LoadAvgWindow = window
		c.SwapCycles = 10
		c.RescueBlockedCycles = 50
	})
}

var goldenCases = []goldenCase{
	{name: "somt/quicksort", prog: "quicksort", variant: VariantComponent, n: 400, seed: 1, cfg: cpu.SOMTConfig,
		want: cpu.Stats{Cycles: 24085, Insts: 102807, DivRequested: 86, DivGranted: 76, Deaths: 76, NoCtxDenies: 10, LockAcquires: 152, LockStallCycles: 3, MispredictedBranches: 2222, BranchStats: bpred.Stats{Lookups: 7114, Correct: 4892}, L1I: mem.CacheStats{Accesses: 33436, Misses: 33}, L1D: mem.CacheStats{Accesses: 29311, Misses: 398}, L2: mem.CacheStats{Accesses: 431, Misses: 163}, FetchedInsts: 102807, ActiveCtxCycles: 76091, PeakLiveThreads: 8, TotalThreads: 77}, sum: 0xcbf29ce484222325},
	{name: "smt/dijkstra", prog: "dijkstra", variant: VariantComponent, n: 120, seed: 2, cfg: cpu.SMTConfig,
		want: cpu.Stats{Cycles: 40989, Insts: 127971, DivRequested: 1645, LockAcquires: 1646, MispredictedBranches: 1451, BranchStats: bpred.Stats{Lookups: 5807, Correct: 4358}, L1I: mem.CacheStats{Accesses: 27050, Misses: 22}, L1D: mem.CacheStats{Accesses: 25010, Misses: 779}, L2: mem.CacheStats{Accesses: 801, Misses: 221}, FetchedInsts: 127971, ActiveCtxCycles: 40989, PeakLiveThreads: 1, TotalThreads: 1}, sum: 0xcbf29ce484222325},
	{name: "smt-static/lzw", prog: "lzw", variant: VariantComponent, n: 512, seed: 3, cfg: cpu.SMTStaticConfig,
		want: cpu.Stats{Cycles: 13173, Insts: 30612, DivRequested: 63, DivGranted: 7, Deaths: 7, LockAcquires: 78, LockStallCycles: 21, MispredictedBranches: 370, BranchStats: bpred.Stats{Lookups: 2316, Correct: 1946}, L1I: mem.CacheStats{Accesses: 20833, Misses: 30}, L1D: mem.CacheStats{Accesses: 6540, Misses: 387}, L2: mem.CacheStats{Accesses: 417, Misses: 250}, FetchedInsts: 30612, ActiveCtxCycles: 35076, PeakLiveThreads: 8, TotalThreads: 8}, sum: 0xb8f9a16c6157065c},
	{name: "superscalar/quicksort", prog: "quicksort", variant: VariantImperative, n: 400, seed: 1, cfg: cpu.SuperscalarConfig,
		want: cpu.Stats{Cycles: 40451, Insts: 100572, MispredictedBranches: 1902, BranchStats: bpred.Stats{Lookups: 6724, Correct: 4822}, L1I: mem.CacheStats{Accesses: 20000, Misses: 29}, L1D: mem.CacheStats{Accesses: 26343, Misses: 194}, L2: mem.CacheStats{Accesses: 223, Misses: 150}, FetchedInsts: 100572, ActiveCtxCycles: 40451, PeakLiveThreads: 1, TotalThreads: 1}, sum: 0xcbf29ce484222325},
	{name: "superscalar/perceptron", prog: "perceptron", variant: VariantImperative, n: 256, seed: 4, cfg: cpu.SuperscalarConfig,
		want: cpu.Stats{Cycles: 18079, Insts: 40531, LockAcquires: 3, MispredictedBranches: 17, BranchStats: bpred.Stats{Lookups: 1361, Correct: 1344}, L1I: mem.CacheStats{Accesses: 14629, Misses: 30}, L1D: mem.CacheStats{Accesses: 8373, Misses: 336}, L2: mem.CacheStats{Accesses: 366, Misses: 213}, FetchedInsts: 40531, ActiveCtxCycles: 18079, PeakLiveThreads: 1, TotalThreads: 1}, sum: 0xaede96f2c123e872},
	{name: "somt-roundrobin/perceptron", prog: "perceptron", variant: VariantComponent, n: 256, seed: 4,
		cfg:  somtWith(func(c *cpu.Config) { c.RoundRobinFetch = true }),
		want: cpu.Stats{Cycles: 15686, Insts: 70510, DivRequested: 335, DivGranted: 79, Deaths: 79, ThrottleDenies: 18, NoCtxDenies: 238, LockAcquires: 361, LockStallCycles: 708, MispredictedBranches: 845, BranchStats: bpred.Stats{Lookups: 3185, Correct: 2340}, L1I: mem.CacheStats{Accesses: 42986, Misses: 53}, L1D: mem.CacheStats{Accesses: 18048, Misses: 1098}, L2: mem.CacheStats{Accesses: 1151, Misses: 250}, FetchedInsts: 70510, ActiveCtxCycles: 86911, PeakLiveThreads: 8, TotalThreads: 80}, sum: 0xdf9dc7861b3a6808},
	{name: "somt-divextra32/dijkstra", prog: "dijkstra", variant: VariantComponent, n: 120, seed: 2,
		cfg:  somtWith(func(c *cpu.Config) { c.DivExtraCycles = 32 }),
		want: cpu.Stats{Cycles: 9715, Insts: 46212, DivRequested: 548, DivGranted: 61, Deaths: 61, ThrottleDenies: 43, NoCtxDenies: 444, LockAcquires: 671, LockStallCycles: 442, MispredictedBranches: 714, BranchStats: bpred.Stats{Lookups: 2307, Correct: 1594}, L1I: mem.CacheStats{Accesses: 21808, Misses: 25}, L1D: mem.CacheStats{Accesses: 9100, Misses: 1003}, L2: mem.CacheStats{Accesses: 1028, Misses: 304}, FetchedInsts: 46212, ActiveCtxCycles: 48132, PeakLiveThreads: 8, TotalThreads: 62}, sum: 0xcbf29ce484222325},
	{name: "somt-doubled/lzw", prog: "lzw", variant: VariantComponent, n: 512, seed: 3,
		cfg:  somtWith(func(c *cpu.Config) { c.Hierarchy = mem.DefaultHierarchy().Doubled() }),
		want: cpu.Stats{Cycles: 8033, Insts: 31212, DivRequested: 63, DivGranted: 22, Deaths: 22, NoCtxDenies: 41, LockAcquires: 108, LockStallCycles: 175, MispredictedBranches: 478, BranchStats: bpred.Stats{Lookups: 2406, Correct: 1928}, L1I: mem.CacheStats{Accesses: 23768, Misses: 30}, L1D: mem.CacheStats{Accesses: 7728, Misses: 388}, L2: mem.CacheStats{Accesses: 418, Misses: 250}, FetchedInsts: 31212, ActiveCtxCycles: 46781, PeakLiveThreads: 8, TotalThreads: 23}, sum: 0x56ad60ec269fd0ef},
	{name: "somt-swapping/dijkstra", prog: "dijkstra", variant: VariantComponent, n: 150, seed: 3, cfg: swapForcing(2, 4),
		want: cpu.Stats{Cycles: 533549, Insts: 333989, DivRequested: 4301, DivGranted: 1, Deaths: 1, SwapsOut: 1883, SwapsIn: 1883, NoCtxDenies: 4300, LockAcquires: 4304, MispredictedBranches: 3601, BranchStats: bpred.Stats{Lookups: 15031, Correct: 11431}, L1I: mem.CacheStats{Accesses: 64958, Misses: 25}, L1D: mem.CacheStats{Accesses: 67671, Misses: 5147}, L2: mem.CacheStats{Accesses: 5172, Misses: 287}, FetchedInsts: 333989, ActiveCtxCycles: 641747, PeakLiveThreads: 2, TotalThreads: 2, MaxStackDepth: 1}, sum: 0xcbf29ce484222325},
	// Loads of several contexts completing in one cycle move a two-load
	// average: here the order they are taken in changes the evictions.
	{name: "somt-swap8/lzw", prog: "lzw", variant: VariantComponent, n: 512, seed: 2, cfg: swapForcing(8, 2),
		want: cpu.Stats{Cycles: 9792, Insts: 31423, DivRequested: 63, DivGranted: 38, Deaths: 38, SwapsOut: 65, SwapsIn: 65, Rescues: 3, NoCtxDenies: 25, LockAcquires: 140, LockStallCycles: 2, MispredictedBranches: 513, BranchStats: bpred.Stats{Lookups: 2467, Correct: 1954}, L1I: mem.CacheStats{Accesses: 23545, Misses: 30}, L1D: mem.CacheStats{Accesses: 7075, Misses: 694}, L2: mem.CacheStats{Accesses: 724, Misses: 278}, FetchedInsts: 31423, ActiveCtxCycles: 40233, PeakLiveThreads: 18, TotalThreads: 39, MaxStackDepth: 14}, sum: 0x8fb3eeac9a83b825},
}

// runGolden generates the case's input exactly as capsim does for the same
// -n and -seed, and simulates it (each Run* checks the output against its
// Go reference).
func runGolden(gc goldenCase) (*core.RunResult, error) {
	rng := rand.New(rand.NewSource(gc.seed))
	cfg := gc.cfg()
	switch gc.prog {
	case "quicksort":
		return RunQuickSort(GenList(rng, ListUniform, gc.n), gc.variant, cfg)
	case "dijkstra":
		return RunDijkstra(GenGraph(rng, gc.n, GenDijkstraMaxDeg, GenDijkstraMaxW), gc.variant, cfg)
	case "lzw":
		return RunLZW(GenLZW(rng, gc.n), gc.variant, cfg)
	default:
		return RunPerceptron(GenPerceptron(rng, gc.n, GenPerceptronPats, GenPerceptronEpochs), gc.variant, cfg)
	}
}

// outputSum is FNV-1a over every printed value and the cycle it was
// printed at. QuickSort and Dijkstra print nothing (their results stay in
// memory, which their Run* checks), so they sum to FNV's offset basis.
func outputSum(r *core.RunResult) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for i, v := range r.Output {
		binary.LittleEndian.PutUint64(b[:8], uint64(v))
		binary.LittleEndian.PutUint64(b[8:], r.OutputCycles[i])
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTimingStatsGolden compares the whole cpu.Stats of each case with ==
// against values recorded before the pipeline's bookkeeping was rewritten.
// The order-sensitive paths (the swap policy's rolling load average, lock
// stalls, both kinds of refused division) must each be exercised somewhere
// in the table, or the comparison could pass without covering them.
func TestTimingStatsGolden(t *testing.T) {
	var covered cpu.Stats
	for _, gc := range goldenCases {
		res, err := runGolden(gc)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if res.Stats != gc.want {
			t.Errorf("%s: stats drifted\n got %+v\nwant %+v", gc.name, res.Stats, gc.want)
		}
		if sum := outputSum(res); sum != gc.sum {
			t.Errorf("%s: output sum %#x, want %#x", gc.name, sum, gc.sum)
		}
		covered.SwapsOut += res.Stats.SwapsOut
		covered.SwapsIn += res.Stats.SwapsIn
		covered.LockStallCycles += res.Stats.LockStallCycles
		covered.ThrottleDenies += res.Stats.ThrottleDenies
		covered.NoCtxDenies += res.Stats.NoCtxDenies
	}
	for name, v := range map[string]uint64{
		"SwapsOut":        covered.SwapsOut,
		"SwapsIn":         covered.SwapsIn,
		"LockStallCycles": covered.LockStallCycles,
		"ThrottleDenies":  covered.ThrottleDenies,
		"NoCtxDenies":     covered.NoCtxDenies,
	} {
		if v == 0 {
			t.Errorf("no case exercises %s", name)
		}
	}
}
