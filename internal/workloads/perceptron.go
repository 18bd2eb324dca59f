package workloads

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// Perceptron is the second Fig. 7 workload: a single-layer perceptron whose
// component version "constantly attempts to split its initial group of
// neurons into two child components with half the number of neurons". The
// dot product per split is tiny, so throttling is what keeps division
// overhead from eating the parallel gain.
//
// Arithmetic is fixed-point (Q8) so results are exact and independent of
// worker interleaving (the locked accumulation is an integer sum).

// PerceptronInput is one training problem.
type PerceptronInput struct {
	Neurons  int // weight vector length (paper: 10000)
	Patterns int // training patterns
	Epochs   int
	X        [][]int64 // inputs, Q8 fixed point
	Y        []int64   // targets: +1/-1
	W0       []int64   // initial weights, Q8
}

// GenPerceptron generates a linearly-separable-ish problem.
func GenPerceptron(rng *rand.Rand, neurons, patterns, epochs int) *PerceptronInput {
	in := &PerceptronInput{Neurons: neurons, Patterns: patterns, Epochs: epochs}
	trueW := make([]int64, neurons)
	for i := range trueW {
		trueW[i] = int64(rng.Intn(513) - 256) // [-1, 1] in Q8
	}
	in.W0 = make([]int64, neurons)
	for i := range in.W0 {
		in.W0[i] = int64(rng.Intn(65) - 32)
	}
	in.X = make([][]int64, patterns)
	in.Y = make([]int64, patterns)
	for p := 0; p < patterns; p++ {
		in.X[p] = make([]int64, neurons)
		var dot int64
		for i := 0; i < neurons; i++ {
			in.X[p][i] = int64(rng.Intn(513) - 256)
			dot += trueW[i] * in.X[p][i] >> 8
		}
		if dot >= 0 {
			in.Y[p] = 1
		} else {
			in.Y[p] = -1
		}
	}
	return in
}

// RefPerceptron trains the reference model and returns final weights and
// the total mistake count, using the same fixed-point updates as the CapC
// program.
func RefPerceptron(in *PerceptronInput) (w []int64, mistakes int64) {
	w = append([]int64(nil), in.W0...)
	for e := 0; e < in.Epochs; e++ {
		for p := 0; p < in.Patterns; p++ {
			var acc int64
			for i := 0; i < in.Neurons; i++ {
				acc += w[i] * in.X[p][i] >> 8
			}
			pred := int64(1)
			if acc < 0 {
				pred = -1
			}
			if pred != in.Y[p] {
				mistakes++
				for i := 0; i < in.Neurons; i++ {
					w[i] += in.Y[p] * in.X[p][i] >> 4
				}
			}
		}
	}
	return w, mistakes
}

// PerceptronChunk is the leaf range size for the component version. Tiny on
// purpose: the paper's group of 10000 neurons halves down to components
// that "perform little processing on their data" (Fig. 7).
const PerceptronChunk = 4

// perceptronSrc emits CapC. The forward dot product and the weight update
// are componentised the paper's way: the worker constantly offers the
// upper half of its remaining neuron range to a co-worker; on probe
// failure it computes one chunk itself and probes again. The native twin
// (NativePerceptron) offers at a grain instead: after a refusal it does
// up to divGrain neurons before it offers again.
func perceptronSrc(variant Variant, maxNeurons, maxPatterns int) string {
	common := fmt.Sprintf(`
const MAXNEU = %d;
const MAXPAT = %d;
const CHUNK = %d;
var neurons;
var patterns;
var epochs;
var w[MAXNEU];
var x[MAXNEU * MAXPAT];
var y[MAXPAT];
var acc;
var mistakes;

func dot(lo, hi, pat) {
	var base = pat * neurons;
	var s = 0;
	var i;
	for (i = lo; i < hi; i = i + 1) {
		s = s + ((w[i] * x[base + i]) >> 8);
	}
	lock(&acc);
	acc = acc + s;
	unlock(&acc);
	return 0;
}

func upd(lo, hi, pat) {
	var base = pat * neurons;
	var t = y[pat];
	var i;
	for (i = lo; i < hi; i = i + 1) {
		w[i] = w[i] + ((t * x[base + i]) >> 4);
	}
	return 0;
}
`, maxNeurons, maxPatterns, PerceptronChunk)

	if variant == VariantImperative {
		return common + `
func main() {
	var e;
	for (e = 0; e < epochs; e = e + 1) {
		var p;
		for (p = 0; p < patterns; p = p + 1) {
			acc = 0;
			dot(0, neurons, p);
			var pred = 1;
			if (acc < 0) { pred = 0 - 1; }
			if (pred != y[p]) {
				mistakes = mistakes + 1;
				upd(0, neurons, p);
			}
		}
	}
	print(mistakes);
}
`
	}
	return common + `
worker forward(lo, hi, pat) {
	while (hi - lo > CHUNK) {
		var mid = (lo + hi) / 2;
		var denied = 0;
		coworker forward(mid, hi, pat) else { denied = 1; }
		if (denied) {
			dot(lo, lo + CHUNK, pat);
			lo = lo + CHUNK;
		} else {
			hi = mid;
		}
	}
	if (lo < hi) { dot(lo, hi, pat); }
	return 0;
}

worker update(lo, hi, pat) {
	while (hi - lo > CHUNK) {
		var mid = (lo + hi) / 2;
		var denied = 0;
		coworker update(mid, hi, pat) else { denied = 1; }
		if (denied) {
			upd(lo, lo + CHUNK, pat);
			lo = lo + CHUNK;
		} else {
			hi = mid;
		}
	}
	if (lo < hi) { upd(lo, hi, pat); }
	return 0;
}

func main() {
	var e;
	for (e = 0; e < epochs; e = e + 1) {
		var p;
		for (p = 0; p < patterns; p = p + 1) {
			acc = 0;
			forward(0, neurons, p);
			join();
			var pred = 1;
			if (acc < 0) { pred = 0 - 1; }
			if (pred != y[p]) {
				mistakes = mistakes + 1;
				update(0, neurons, p);
				join();
			}
		}
	}
	print(mistakes);
}
`
}

// PerceptronProgram compiles (cached) the requested variant.
func PerceptronProgram(variant Variant, maxNeurons, maxPatterns int) (*prog.Program, error) {
	key := fmt.Sprintf("perceptron-%s-%d-%d", variant, maxNeurons, maxPatterns)
	return cachedBuild(key, func() string { return perceptronSrc(variant, maxNeurons, maxPatterns) })
}

// perceptronImage loads in into a fresh image of the variant's program,
// built for exactly in.Patterns patterns: x holds them row by row.
func perceptronImage(in *PerceptronInput, variant Variant) (*prog.Program, error) {
	base, err := PerceptronProgram(variant, capRound(in.Neurons), in.Patterns)
	if err != nil {
		return nil, err
	}
	return image(base, scalar("g_neurons", in.Neurons), scalar("g_patterns", in.Patterns), scalar("g_epochs", in.Epochs),
		global{"g_w", in.W0}, global{"g_x", slices.Concat(in.X...)}, global{"g_y", in.Y})
}

// RunPerceptron simulates one training problem and checks the printed
// mistake count and every 97th final weight.
//
// Note the componentised update phase writes disjoint weight ranges and the
// forward phase accumulates under a lock, so the result is exact.
func RunPerceptron(in *PerceptronInput, variant Variant, cfg cpu.Config) (*core.RunResult, error) {
	p, err := perceptronImage(in, variant)
	if err != nil {
		return nil, err
	}
	wantW, wantM := RefPerceptron(in)
	mistakes := printed("perceptron", wantM)
	return simulate(p, cfg, func(res *core.RunResult, p *prog.Program) error {
		if err := mistakes(res, p); err != nil {
			return err
		}
		for i := 0; i < in.Neurons; i += 97 {
			got, err := core.ReadWord(res.Mem, p, "g_w", i)
			if err != nil {
				return err
			}
			if got != wantW[i] {
				return fmt.Errorf("perceptron: w[%d] = %d, want %d", i, got, wantW[i])
			}
		}
		return nil
	})
}
