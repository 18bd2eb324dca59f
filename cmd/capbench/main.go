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

	"repro/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	exp                  string
	all, full, list, dot bool
	seed                 int64
}

// newFlagSet declares capbench's flags; run and the doc-command test share it.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.exp, "exp", "", "experiment id (see -list)")
	fs.BoolVar(&o.all, "all", false, "run every experiment")
	fs.BoolVar(&o.full, "full", false, "paper-scale inputs (slow)")
	fs.BoolVar(&o.list, "list", false, "list experiment ids")
	fs.BoolVar(&o.dot, "dot", false, "with -exp fig6: emit GraphViz DOT of the division tree")
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	return fs, o
}

// run is the whole command; it returns the exit status: 1 when an
// experiment fails, 2 on a bad flag or none of -exp, -all and -list.
// -list wins over every other flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlagSet()
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	params := exp.Quick()
	if o.full {
		params = exp.Full()
	}
	params.Seed = o.seed

	ids := exp.IDs()
	switch {
	case o.list:
		fmt.Fprintln(stdout, strings.Join(ids, "\n"))
		return 0
	case o.dot && o.exp == "fig6":
		_, divs, err := exp.Fig6(params)
		if err != nil {
			fmt.Fprintf(stderr, "capbench: fig6: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, exp.DivisionDOT(divs))
		return 0
	case o.exp != "":
		ids = []string{o.exp}
	case !o.all:
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
		if o.exp == "" { // -all separates the experiments
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
