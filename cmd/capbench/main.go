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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status: 1 when an
// experiment fails, 2 on a bad flag or none of -exp, -all and -list.
// -list wins over every other flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expID := fs.String("exp", "", "experiment id (see -list)")
	all := fs.Bool("all", false, "run every experiment")
	full := fs.Bool("full", false, "paper-scale inputs (slow)")
	list := fs.Bool("list", false, "list experiment ids")
	dot := fs.Bool("dot", false, "with -exp fig6: emit GraphViz DOT of the division tree")
	seed := fs.Int64("seed", 1, "input generation seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	params := exp.Quick()
	if *full {
		params = exp.Full()
	}
	params.Seed = *seed

	ids := exp.IDs()
	switch {
	case *list:
		fmt.Fprintln(stdout, strings.Join(ids, "\n"))
		return 0
	case *dot && *expID == "fig6":
		return emitFig6DOT(params, stdout, stderr)
	case *expID != "":
		ids = []string{*expID}
	case !*all:
		fs.Usage()
		return 2
	}
	for _, id := range ids {
		r, err := exp.Run(id, params)
		if err != nil {
			fmt.Fprintf(stderr, "capbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprint(stdout, r.Render())
		if *expID == "" { // -all separates the experiments
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

func emitFig6DOT(p exp.Params, stdout, stderr io.Writer) int {
	n := 400
	if p.Scale >= 1 {
		n = 4096
	}
	rng := workloads.NewRand(p.Seed)
	list := workloads.GenList(rng, workloads.ListUniform, n)
	res, err := workloads.RunQuickSortTraced(list, workloads.VariantComponent, cpu.SOMTConfig())
	if err != nil {
		fmt.Fprintf(stderr, "capbench: fig6: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, exp.DivisionDOT(res.Divisions))
	return 0
}
