package exp

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/workloads"
)

// Fig. 3: distribution of execution time, Dijkstra (100 graphs of 1000
// nodes at full scale) on superscalar / statically parallelised SMT / SOMT.
func init() {
	register("fig3", func(p Params) (*Result, error) {
		graphs := p.scaled(100, 6)
		nodes := p.scaled(1000, 80)
		archs := workloads.PaperArchs()
		cycles := map[string][]uint64{}
		for g := 0; g < graphs; g++ {
			rng := workloads.RandFor(p.Seed, g)
			in := workloads.GenGraph(rng, nodes, 4, 9)
			for _, a := range archs {
				res, err := workloads.RunDijkstra(in, a.Variant, a.Cfg)
				if err != nil {
					return nil, fmt.Errorf("fig3 %s graph %d: %w", a.Name, g, err)
				}
				cycles[a.Name] = append(cycles[a.Name], res.Cycles)
			}
		}
		r := &Result{
			ID:     "fig3",
			Title:  fmt.Sprintf("Dijkstra execution-time distribution (%d graphs x %d nodes)", graphs, nodes),
			Header: []string{"machine", "mean cycles", "min", "max", "stddev", "stddev/mean", "speedup vs ss"},
		}
		ssMean := summarise(cycles["superscalar"]).mean
		for _, a := range archs {
			s := summarise(cycles[a.Name])
			r.Rows = append(r.Rows, []string{
				a.Name, f1(s.mean), f1(s.min), f1(s.max), f1(s.stddev),
				f2(s.stddev / s.mean), f2(ssMean / s.mean),
			})
		}
		r.Notes = append(r.Notes,
			"paper: SOMT outperforms both and is markedly more stable across data sets",
			"paper speedups at full scale: 1.23 vs static SMT, 2.51 vs superscalar")
		return r, nil
	})
}

// Fig. 5: distribution of execution time, QuickSort (500 lists of various
// distributions at full scale).
func init() {
	register("fig5", func(p Params) (*Result, error) {
		lists := p.scaled(500, 8)
		n := p.scaled(4096, 200)
		archs := workloads.PaperArchs()
		cycles := map[string][]uint64{}
		for l := 0; l < lists; l++ {
			rng := workloads.RandFor(p.Seed+1, l)
			kind := workloads.ListKind(l % 6)
			list := workloads.GenList(rng, kind, n)
			for _, a := range archs {
				res, err := workloads.RunQuickSort(list, a.Variant, a.Cfg)
				if err != nil {
					return nil, fmt.Errorf("fig5 %s list %d: %w", a.Name, l, err)
				}
				cycles[a.Name] = append(cycles[a.Name], res.Cycles)
			}
		}
		r := &Result{
			ID:     "fig5",
			Title:  fmt.Sprintf("QuickSort execution-time distribution (%d lists x %d elements)", lists, n),
			Header: []string{"machine", "mean cycles", "min", "max", "stddev", "stddev/mean", "speedup vs ss"},
		}
		ssMean := summarise(cycles["superscalar"]).mean
		for _, a := range archs {
			s := summarise(cycles[a.Name])
			r.Rows = append(r.Rows, []string{
				a.Name, f1(s.mean), f1(s.min), f1(s.max), f1(s.stddev),
				f2(s.stddev / s.mean), f2(ssMean / s.mean),
			})
		}
		r.Notes = append(r.Notes,
			"paper speedups at full scale: 2.51 vs static SMT, 2.93 vs superscalar")
		return r, nil
	})
}

// Fig. 6: the irregular division tree of one QuickSort run.
func init() {
	register("fig6", func(p Params) (*Result, error) {
		n, divs, err := Fig6(p)
		if err != nil {
			return nil, err
		}
		r := &Result{
			ID:     "fig6",
			Title:  fmt.Sprintf("QuickSort division tree (n=%d): %d divisions", n, len(divs)),
			Header: []string{"cycle", "parent", "child", "pc"},
		}
		maxRows, busiest := 24, 0
		children := map[int]int{} // divisions per dividing worker
		for i, d := range divs {
			children[d.Parent]++
			busiest = max(busiest, children[d.Parent])
			if i < maxRows {
				r.Rows = append(r.Rows, []string{
					u(d.Cycle), fmt.Sprintf("w%d", d.Parent), fmt.Sprintf("w%d", d.Child), fmt.Sprintf("%d", d.PC),
				})
			}
		}
		if len(divs) > maxRows {
			r.Notes = append(r.Notes, fmt.Sprintf("(%d more divisions omitted)", len(divs)-maxRows))
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("%d dividing workers, the busiest divided %d times (irregular: per-worker counts vary)", len(children), busiest),
			"full DOT rendering: capbench -exp fig6 -dot")
		return r, nil
	})
}

// Fig6 runs Fig. 6's one QuickSort: n elements (4096 at full scale) of a
// uniform list drawn from RandFor(Seed+2, 0), components on the SOMT
// machine. It returns n and the run's divisions in grant order; the fig6
// experiment lists them and `capbench -exp fig6 -dot` draws them.
func Fig6(p Params) (int, []cpu.DivisionEvent, error) {
	n := p.scaled(4096, 400)
	list := workloads.GenList(workloads.RandFor(p.Seed+2, 0), workloads.ListUniform, n)
	res, err := workloads.RunQuickSort(list, workloads.VariantComponent, cpu.SOMTConfig())
	if err != nil {
		return 0, nil, err
	}
	return n, res.Divisions, nil
}

// DivisionDOT renders division events as a GraphViz tree (Fig. 6 style).
func DivisionDOT(divs []cpu.DivisionEvent) string {
	var b []byte
	b = append(b, "digraph divisions {\n  node [shape=point];\n"...)
	for _, d := range divs {
		b = append(b, fmt.Sprintf("  w%d -> w%d; // cycle %d\n", d.Parent, d.Child, d.Cycle)...)
	}
	b = append(b, "}\n"...)
	return string(b)
}

// Fig. 7: division throttling of small parallel sections (LZW and
// Perceptron), throttle on vs off.
func init() {
	register("fig7", func(p Params) (*Result, error) {
		on := cpu.SOMTConfig()
		off := cpu.SOMTConfig()
		off.ThrottleOn = false

		rng := workloads.RandFor(p.Seed+3, 0)
		lzwIn := workloads.GenLZW(rng, p.scaled(4096, 512))
		l1, err := workloads.RunLZW(lzwIn, workloads.VariantComponent, on)
		if err != nil {
			return nil, err
		}
		l2, err := workloads.RunLZW(lzwIn, workloads.VariantComponent, off)
		if err != nil {
			return nil, err
		}
		neurons := p.scaled(10000, 512)
		pin := workloads.GenPerceptron(rng, neurons, 4, 1)
		p1, err := workloads.RunPerceptron(pin, workloads.VariantComponent, on)
		if err != nil {
			return nil, err
		}
		p2, err := workloads.RunPerceptron(pin, workloads.VariantComponent, off)
		if err != nil {
			return nil, err
		}
		r := &Result{
			ID:     "fig7",
			Title:  "division throttling of small parallel sections",
			Header: []string{"benchmark", "throttle", "cycles", "grants", "throttle denies", "deaths"},
			Rows: [][]string{
				{"LZW", "on", u(l1.Cycles), u(l1.Stats.DivGranted), u(l1.Stats.ThrottleDenies), u(l1.Stats.Deaths)},
				{"LZW", "off", u(l2.Cycles), u(l2.Stats.DivGranted), u(l2.Stats.ThrottleDenies), u(l2.Stats.Deaths)},
				{"Perceptron", "on", u(p1.Cycles), u(p1.Stats.DivGranted), u(p1.Stats.ThrottleDenies), u(p1.Stats.Deaths)},
				{"Perceptron", "off", u(p2.Cycles), u(p2.Stats.DivGranted), u(p2.Stats.ThrottleDenies), u(p2.Stats.Deaths)},
			},
			Notes: []string{
				"paper: both benchmarks benefit from throttling",
				"reproduction: the throttle curbs grant churn; its cycle benefit is within noise here",
				"because division overhead in this model lands mostly on otherwise-idle contexts",
			},
		}
		return r, nil
	})
}

// Fig. 8: re-engineered SPEC CINT2000: overall and component-section
// speedups of SOMT vs superscalar, with the section share of execution.
func init() {
	register("fig8", func(p Params) (*Result, error) {
		r := &Result{
			ID:     "fig8",
			Title:  "SPEC proxies: SOMT vs superscalar",
			Header: []string{"benchmark", "overall speedup", "section speedup", "% in section (ss)", "paper overall", "paper %"},
		}

		type secRes struct {
			overall, section, frac float64
		}
		measure := func(run func(v workloads.Variant, cfg cpu.Config) (uint64, uint64, error)) (secRes, error) {
			ssTotal, ssSec, err := run(workloads.VariantImperative, cpu.SuperscalarConfig())
			if err != nil {
				return secRes{}, err
			}
			soTotal, soSec, err := run(workloads.VariantComponent, cpu.SOMTConfig())
			if err != nil {
				return secRes{}, err
			}
			out := secRes{
				overall: float64(ssTotal) / float64(soTotal),
				frac:    float64(ssSec) / float64(ssTotal),
			}
			if soSec > 0 {
				out.section = float64(ssSec) / float64(soSec)
			}
			return out, nil
		}

		rng := workloads.RandFor(p.Seed+4, 0)
		mcfIn := workloads.GenMCF(rng, p.scaled(16384, 500), p.scaled(4096, 256), 3)
		mcf, err := measure(func(v workloads.Variant, cfg cpu.Config) (uint64, uint64, error) {
			res, err := workloads.RunMCF(mcfIn, v, cfg)
			if err != nil {
				return 0, 0, err
			}
			sec, err := res.SectionCycles()
			return res.Cycles, sec, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 mcf: %w", err)
		}
		r.Rows = append(r.Rows, []string{"181.mcf", f2(mcf.overall), f2(mcf.section), pct(mcf.frac), "~1.2", "45%"})

		vprIn := workloads.GenVPR(rng, p.scaled(48, 10), p.scaled(48, 10), p.scaled(24, 4), 10)
		vpr, err := measure(func(v workloads.Variant, cfg cpu.Config) (uint64, uint64, error) {
			res, err := workloads.RunVPR(vprIn, v, cfg)
			if err != nil {
				return 0, 0, err
			}
			sec, err := res.Run.SectionCycles()
			return res.Run.Cycles, sec, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 vpr: %w", err)
		}
		r.Rows = append(r.Rows, []string{"175.vpr", f2(vpr.overall), f2(vpr.section), pct(vpr.frac), "~2.5 (3.0 w/2x cache)", "93%"})

		bzIn := workloads.GenBzip2(rng, p.scaled(2048, 256), 4)
		bz, err := measure(func(v workloads.Variant, cfg cpu.Config) (uint64, uint64, error) {
			res, err := workloads.RunBzip2(bzIn, v, cfg)
			if err != nil {
				return 0, 0, err
			}
			sec, err := res.SectionCycles()
			return res.Cycles, sec, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 bzip2: %w", err)
		}
		r.Rows = append(r.Rows, []string{"256.bzip2", f2(bz.overall), f2(bz.section), pct(bz.frac), "~1.1", "20%"})

		crIn := workloads.GenCrafty(rng, 4, p.scaled(12, 6), 7)
		ssC, err := workloads.RunCrafty(crIn, workloads.VariantImperative, cpu.SuperscalarConfig())
		if err != nil {
			return nil, fmt.Errorf("fig8 crafty: %w", err)
		}
		soC, err := workloads.RunCrafty(crIn, workloads.VariantComponent, cpu.SOMTConfig())
		if err != nil {
			return nil, fmt.Errorf("fig8 crafty: %w", err)
		}
		cs := float64(ssC.Cycles) / float64(soC.Cycles)
		r.Rows = append(r.Rows, []string{"186.crafty", f2(cs), f2(cs), "100%", "1.7 (8-ctx)", "100%"})
		r.Notes = append(r.Notes,
			"paper Fig. 8 bar heights are read off the plot; its shapes: vpr highest, bzip2/mcf modest, all > 1",
			"crafty uses a software thread pool (pthread-style), so overall == section")
		return r, nil
	})
}
