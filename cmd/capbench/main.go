// Command capbench regenerates the paper's tables and figures.
//
// Usage:
//
//	capbench -exp fig3            # one experiment, quick scale
//	capbench -exp fig6 -dot       # Fig. 6 as GraphViz DOT
//	capbench -all                 # every experiment
//	capbench -all -full           # paper-scale inputs (slow)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/workloads"
)

func main() {
	expID := flag.String("exp", "", "experiment id (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	full := flag.Bool("full", false, "paper-scale inputs (slow)")
	list := flag.Bool("list", false, "list experiment ids")
	dot := flag.Bool("dot", false, "with -exp fig6: emit GraphViz DOT of the division tree")
	seed := flag.Int64("seed", 1, "input generation seed")
	flag.Parse()

	params := exp.Quick()
	if *full {
		params = exp.Full()
	}
	params.Seed = *seed

	switch {
	case *list:
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
	case *dot && *expID == "fig6":
		emitFig6DOT(params)
	case *expID != "":
		run(*expID, params)
	case *all:
		for _, id := range exp.IDs() {
			run(id, params)
			fmt.Println()
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func run(id string, p exp.Params) {
	r, err := exp.Run(id, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capbench: %s: %v\n", id, err)
		os.Exit(1)
	}
	fmt.Print(r.Render())
}

func emitFig6DOT(p exp.Params) {
	n := 400
	if p.Scale >= 1 {
		n = 4096
	}
	rng := workloads.NewRand(p.Seed)
	list := workloads.GenList(rng, workloads.ListUniform, n)
	res, err := workloads.RunQuickSortTraced(list, workloads.VariantComponent, cpu.SOMTConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "capbench: fig6: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(exp.DivisionDOT(res.Divisions))
}
