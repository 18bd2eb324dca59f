package repro

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/workloads"
)

func benchRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// One benchmark per paper artefact. Each iteration regenerates the artefact
// at reduced scale (the same code paths as `capbench -full`, smaller
// inputs) and reports the headline metric the paper's table/figure shows
// via b.ReportMetric, so `go test -bench` output can be compared against
// the paper's shape claims directly.

func benchParams() exp.Params { return exp.Params{Scale: 0.05, Seed: 1} }

func reportSpeedup(b *testing.B, r *exp.Result, col int) {
	b.Helper()
	// Last row is the SOMT row in the distribution experiments.
	if len(r.Rows) > 0 {
		row := r.Rows[len(r.Rows)-1]
		if col < len(row) {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil {
				b.ReportMetric(v, "speedup_vs_ss")
			}
		}
	}
}

// BenchmarkTable1ConfigSanity checks the Table 1 machine builds and runs.
func BenchmarkTable1ConfigSanity(b *testing.B) {
	p, err := CompileCapC("t1", `func main() { var i; var s = 0; for (i = 0; i < 500; i = i + 1) { s = s + i; } print(s); }`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := Run(p, SOMT())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "cycles")
	}
}

// BenchmarkFig2ToolchainPipeline measures the compile pipeline that
// produces Fig. 2's source/pre-processed/assembly stages.
func BenchmarkFig2ToolchainPipeline(b *testing.B) {
	src := `
var dist[64];
worker explore(node, d) {
	lock(dist + node * 8);
	if (d >= dist[node]) { unlock(dist + node * 8); return 0; }
	dist[node] = d;
	unlock(dist + node * 8);
	coworker explore(node + 1, d + 1);
	return 0;
}
func main() { explore(0, 0); join(); }
`
	for i := 0; i < b.N; i++ {
		if _, _, _, err := CompileCapCListing("fig2", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3DijkstraDistribution regenerates the Fig. 3 distribution.
func BenchmarkFig3DijkstraDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Run("fig3", benchParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, r, 6)
	}
}

// BenchmarkFig5QuickSortDistribution regenerates the Fig. 5 distribution.
func BenchmarkFig5QuickSortDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Run("fig5", benchParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, r, 6)
	}
}

// BenchmarkFig6DivisionTree regenerates the Fig. 6 division tree.
func BenchmarkFig6DivisionTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run("fig6", benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ThrottlingLZW and ...Perceptron regenerate Fig. 7's two bars.
func BenchmarkFig7ThrottlingLZW(b *testing.B) {
	rng := benchRng(100)
	in := workloads.GenLZW(rng, 2048)
	for i := 0; i < b.N; i++ {
		on, err := workloads.RunLZW(in, workloads.VariantComponent, cpu.SOMTConfig())
		if err != nil {
			b.Fatal(err)
		}
		off := cpu.SOMTConfig()
		off.ThrottleOn = false
		offRes, err := workloads.RunLZW(in, workloads.VariantComponent, off)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(offRes.Cycles)/float64(on.Cycles), "offcycles_per_oncycle")
	}
}

func BenchmarkFig7ThrottlingPerceptron(b *testing.B) {
	rng := benchRng(101)
	in := workloads.GenPerceptron(rng, 1024, 3, 1)
	for i := 0; i < b.N; i++ {
		on, err := workloads.RunPerceptron(in, workloads.VariantComponent, cpu.SOMTConfig())
		if err != nil {
			b.Fatal(err)
		}
		off := cpu.SOMTConfig()
		off.ThrottleOn = false
		offRes, err := workloads.RunPerceptron(in, workloads.VariantComponent, off)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(offRes.Cycles)/float64(on.Cycles), "offcycles_per_oncycle")
	}
}

// BenchmarkFig8Spec* regenerate the per-benchmark Fig. 8 bars.
func BenchmarkFig8SpecMCF(b *testing.B) {
	rng := benchRng(102)
	in := workloads.GenMCF(rng, 1023, 256, 2)
	benchSpeedupPair(b,
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunMCF(in, workloads.VariantImperative, cfg)
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		},
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunMCF(in, workloads.VariantComponent, cfg)
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		})
}

func BenchmarkFig8SpecVPR(b *testing.B) {
	rng := benchRng(103)
	in := workloads.GenVPR(rng, 12, 12, 4, 8)
	benchSpeedupPair(b,
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunVPR(in, workloads.VariantImperative, cfg)
			if err != nil {
				return 0, err
			}
			return r.Run.Cycles, nil
		},
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunVPR(in, workloads.VariantComponent, cfg)
			if err != nil {
				return 0, err
			}
			return r.Run.Cycles, nil
		})
}

func BenchmarkFig8SpecBzip2(b *testing.B) {
	rng := benchRng(104)
	in := workloads.GenBzip2(rng, 384, 3)
	benchSpeedupPair(b,
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunBzip2(in, workloads.VariantImperative, cfg)
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		},
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunBzip2(in, workloads.VariantComponent, cfg)
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		})
}

func BenchmarkFig8SpecCrafty(b *testing.B) {
	rng := benchRng(105)
	in := workloads.GenCrafty(rng, 4, 8, 7)
	benchSpeedupPair(b,
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunCrafty(in, workloads.VariantImperative, cfg)
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		},
		func(cfg cpu.Config) (uint64, error) {
			r, err := workloads.RunCrafty(in, workloads.VariantComponent, cfg)
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		})
}

// BenchmarkTable3Divisions regenerates the division statistics.
func BenchmarkTable3Divisions(b *testing.B) {
	rng := benchRng(106)
	in := workloads.GenMCF(rng, 1023, 128, 1)
	for i := 0; i < b.N; i++ {
		res, err := workloads.RunMCF(in, workloads.VariantComponent, cpu.SOMTConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Stats.DivGrantRate(), "pct_divisions_allowed")
		b.ReportMetric(res.Stats.InstsPerDivision(), "insts_per_division")
	}
}

// BenchmarkDivisionLatencySweep is the paper's CMP extrapolation.
func BenchmarkDivisionLatencySweep(b *testing.B) {
	rng := benchRng(107)
	in := workloads.GenGraph(rng, 150, 4, 9)
	for i := 0; i < b.N; i++ {
		base, err := workloads.RunDijkstra(in, workloads.VariantComponent, cpu.SOMTConfig())
		if err != nil {
			b.Fatal(err)
		}
		slow := cpu.SOMTConfig()
		slow.DivExtraCycles = 200
		res, err := workloads.RunDijkstra(in, workloads.VariantComponent, slow)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(float64(res.Cycles)/float64(base.Cycles)-1), "pct_variation_at_200cy")
	}
}

// BenchmarkVPRCacheDoubling is the paper's vpr cache experiment.
func BenchmarkVPRCacheDoubling(b *testing.B) {
	rng := benchRng(108)
	in := workloads.GenVPR(rng, 12, 12, 4, 8)
	for i := 0; i < b.N; i++ {
		base, err := workloads.RunVPR(in, workloads.VariantComponent, cpu.SOMTConfig())
		if err != nil {
			b.Fatal(err)
		}
		big := cpu.SOMTConfig()
		big.Hierarchy = mem.DefaultHierarchy().Doubled()
		res, err := workloads.RunVPR(in, workloads.VariantComponent, big)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(base.Run.Cycles)/float64(res.Run.Cycles), "speedup_from_2x_cache")
	}
}

// BenchmarkSimulatorThroughput measures the simulator's host cost per
// committed instruction (a simulator-quality metric, not a paper artefact)
// on one sim_paper-sized program, Dijkstra at n = 300, paired as sim_paper
// pairs it: components on SOMT, the imperative baseline on the
// superscalar. It reports ns/inst for each machine and their ratio, the
// figure ROADMAP item 13 targets. Each run checks its output against the
// Go reference.
func BenchmarkSimulatorThroughput(b *testing.B) {
	in := workloads.GenGraph(benchRng(109), 300, workloads.GenDijkstraMaxDeg, workloads.GenDijkstraMaxW)
	machines := [2]struct {
		name    string
		cfg     cpu.Config
		variant workloads.Variant
	}{
		{"somt", cpu.SOMTConfig(), workloads.VariantComponent},
		{"superscalar", cpu.SuperscalarConfig(), workloads.VariantImperative},
	}
	run := func(i int) uint64 {
		res, err := workloads.RunDijkstra(in, machines[i].variant, machines[i].cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats.Insts
	}
	// Build both programs outside the timed runs.
	for i := range machines {
		run(i)
	}
	b.ResetTimer()
	var took [2]time.Duration
	var insts [2]uint64
	for range b.N {
		for i := range machines {
			start := time.Now()
			insts[i] += run(i)
			took[i] += time.Since(start)
		}
	}
	var nsPerInst [2]float64
	for i, m := range machines {
		nsPerInst[i] = float64(took[i].Nanoseconds()) / float64(insts[i])
		b.ReportMetric(nsPerInst[i], m.name+"_ns/inst")
	}
	b.ReportMetric(nsPerInst[0]/nsPerInst[1], "somt/superscalar")
}

func benchSpeedupPair(b *testing.B, ss func(cpu.Config) (uint64, error), so func(cpu.Config) (uint64, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t1, err := ss(cpu.SuperscalarConfig())
		if err != nil {
			b.Fatal(err)
		}
		t2, err := so(cpu.SOMTConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t1)/float64(t2), "speedup_vs_ss")
	}
}
