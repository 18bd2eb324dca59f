// QuickSort: reproduces Fig. 6 — the irregular division tree of a
// component QuickSort run — as GraphViz DOT on stdout (pipe into
// `dot -Tpng` to render something that looks just like the paper's
// figure), plus a per-worker division summary on stderr.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/workloads"
)

func main() {
	rng := workloads.NewRand(6)
	list := workloads.GenList(rng, workloads.ListUniform, 800)
	res, err := workloads.RunQuickSortTraced(list, workloads.VariantComponent, cpu.SOMTConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(exp.DivisionDOT(res.Divisions))

	children := map[int]int{}
	for _, d := range res.Divisions {
		children[d.Parent]++
	}
	fmt.Fprintf(os.Stderr, "%d divisions across %d dividing workers (irregular: per-worker counts vary)\n",
		len(res.Divisions), len(children))
	max := 0
	for _, n := range children {
		if n > max {
			max = n
		}
	}
	fmt.Fprintf(os.Stderr, "busiest worker divided %d times; run cycles: %d\n", max, res.Cycles)
}
