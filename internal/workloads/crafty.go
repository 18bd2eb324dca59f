package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// Crafty is the 186.crafty proxy. The paper's crafty component version was
// derived from an existing pthread parallel implementation that keeps "a
// pool of threads in active wait" and "manages thread contexts by
// software", which "mostly inhibits dynamic component division" — and,
// notably, ran FASTER on a 4-context SOMT (2.3x) than on an 8-context one
// (1.7x) because the busy-waiting pool threads burn shared resources.
//
// The proxy searches a synthetic deterministic game tree (children and leaf
// scores derived from a xorshift of the node id) with fixed-window negamax.
// The component version spawns PoolSize pool workers once at start; they
// spin on a lock-protected task queue of root moves (active wait), each
// searching its subtree sequentially and merging the best score under a
// lock. The imperative version searches the root moves in a loop.

// CraftyInput is one search instance.
type CraftyInput struct {
	Depth    int // search depth below the root
	Branch   int // branching factor
	Seed     int64
	PoolSize int // software pool threads (component variant)
}

// GenCrafty builds an instance.
func GenCrafty(rng *rand.Rand, depth, branch, poolSize int) *CraftyInput {
	return &CraftyInput{
		Depth:    depth,
		Branch:   branch,
		Seed:     rng.Int63n(1 << 30),
		PoolSize: poolSize,
	}
}

// craftyHash is the shared node-id hash (must match the CapC code).
func craftyHash(x int64) int64 {
	x ^= x << 13
	x &= (1 << 62) - 1 // CapC has no unsigned shifts at 63 bits; keep positive
	x ^= x >> 7
	x ^= x << 17
	x &= (1 << 62) - 1
	return x
}

// RefCrafty computes the reference negamax value.
func RefCrafty(in *CraftyInput) int64 {
	var nega func(id int64, depth int) int64
	nega = func(id int64, depth int) int64 {
		if depth == 0 {
			return craftyHash(id)%2001 - 1000
		}
		best := int64(-1 << 40)
		for c := 0; c < in.Branch; c++ {
			child := id*int64(in.Branch) + int64(c) + 1
			v := -nega(child, depth-1)
			if v > best {
				best = v
			}
		}
		return best
	}
	best := int64(-1 << 40)
	for c := 0; c < in.Branch; c++ {
		child := in.Seed*int64(in.Branch) + int64(c) + 1
		v := -nega(child, in.Depth-1)
		if v > best {
			best = v
		}
	}
	return best
}

func craftySrc(variant Variant) string {
	common := `
const NEGINF = 0 - (1 << 40);
const MASK62 = (1 << 62) - 1;
var branch;
var depth;
var seed;
var best;
var taskNext;   // next root move to claim
var tasksDone;  // completed root moves
var quit;       // pool shutdown flag

func hash(x) {
	x = x ^ (x << 13);
	x = x & MASK62;
	x = x ^ (x >> 7);
	x = x ^ (x << 17);
	x = x & MASK62;
	return x;
}

func nega(id, d) {
	if (d == 0) {
		return hash(id) % 2001 - 1000;
	}
	var b = NEGINF;
	var c;
	for (c = 0; c < branch; c = c + 1) {
		var v = 0 - nega(id * branch + c + 1, d - 1);
		if (v > b) { b = v; }
	}
	return b;
}

func rootMove(c) {
	var v = 0 - nega(seed * branch + c + 1, depth - 1);
	lock(&best);
	if (v > best) { best = v; }
	unlock(&best);
	return 0;
}
`
	if variant == VariantImperative {
		return common + `
func main() {
	best = NEGINF;
	var c;
	for (c = 0; c < branch; c = c + 1) {
		rootMove(c);
	}
	print(best);
}
`
	}
	return common + `
// poolWorker: the pthread-style pool thread. It claims root moves from the
// shared queue and otherwise busy-waits (active wait) until quit is set.
worker poolWorker() {
	while (1) {
		if (quit != 0) { return 0; }
		var t = 0 - 1;
		lock(&taskNext);
		if (taskNext < branch) {
			t = taskNext;
			taskNext = taskNext + 1;
		}
		unlock(&taskNext);
		if (t < 0) {
			// Active wait: burn a few cycles and poll again.
			var spin = 8;
			while (spin > 0) { spin = spin - 1; }
			continue;
		}
		rootMove(t);
		lock(&tasksDone);
		tasksDone = tasksDone + 1;
		unlock(&tasksDone);
	}
	return 0;
}

var poolsize;

func main() {
	best = NEGINF;
	taskNext = 0;
	tasksDone = 0;
	quit = 0;
	// Spawn the pool once at start; software thread management from here
	// on (divisions are inhibited for the rest of the run).
	var w;
	for (w = 0; w < poolsize; w = w + 1) {
		coworker poolWorker() else { };
	}
	// The main thread participates too, like crafty's master.
	while (1) {
		var t = 0 - 1;
		lock(&taskNext);
		if (taskNext < branch) {
			t = taskNext;
			taskNext = taskNext + 1;
		}
		unlock(&taskNext);
		if (t < 0) { break; }
		rootMove(t);
		lock(&tasksDone);
		tasksDone = tasksDone + 1;
		unlock(&tasksDone);
	}
	// Wait for the pool to finish outstanding moves (active wait).
	while (1) {
		var done;
		lock(&tasksDone);
		done = tasksDone;
		unlock(&tasksDone);
		if (done >= branch) { break; }
		var spin = 16;
		while (spin > 0) { spin = spin - 1; }
	}
	quit = 1;
	join();
	print(best);
}
`
}

// CraftyProgram compiles (cached) the requested variant.
func CraftyProgram(variant Variant) (*prog.Program, error) {
	key := fmt.Sprintf("crafty-%s", variant)
	return cachedBuild(key, func() string { return craftySrc(variant) })
}

// RunCrafty simulates one search and checks the printed negamax value.
func RunCrafty(in *CraftyInput, variant Variant, cfg cpu.Config) (*core.RunResult, error) {
	base, err := CraftyProgram(variant)
	if err != nil {
		return nil, err
	}
	globals := []global{scalar("g_branch", in.Branch), scalar("g_depth", in.Depth), {"g_seed", []int64{in.Seed}}}
	if variant == VariantComponent { // only the pool has a size
		globals = append(globals, scalar("g_poolsize", in.PoolSize))
	}
	p, err := image(base, globals...)
	if err != nil {
		return nil, err
	}
	return simulate(p, cfg, printed("crafty", RefCrafty(in)))
}
