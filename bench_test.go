package repro

import (
	"testing"
	"time"

	"repro/internal/workloads"
)

// BenchmarkSimulatorThroughput measures the simulator's host cost per
// committed instruction (a simulator-quality metric, not a paper artefact)
// on one sim_paper-sized program, Dijkstra at n = 300, paired as sim_paper
// pairs it: components on SOMT, the imperative baseline on the
// superscalar. It reports ns/inst for each machine and their ratio, the
// figure ROADMAP item 13 targets. Each run checks its output against the
// Go reference.
func BenchmarkSimulatorThroughput(b *testing.B) {
	in := workloads.GenGraph(workloads.NewRand(109), 300, workloads.GenDijkstraMaxDeg, workloads.GenDijkstraMaxW)
	archs := workloads.PaperArchs()
	machines := [2]workloads.Arch{archs[2], archs[0]} // somt, superscalar
	run := func(i int) uint64 {
		res, err := workloads.RunDijkstra(in, machines[i].Variant, machines[i].Cfg)
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
		b.ReportMetric(nsPerInst[i], m.Name+"_ns/inst")
	}
	b.ReportMetric(nsPerInst[0]/nsPerInst[1], "somt/superscalar")
}
