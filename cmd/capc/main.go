// Command capc drives the CapC toolchain: it compiles a component program
// and can show the Fig. 2 pipeline stages (source, pre-processed source,
// post-processed assembly) or run the program on a chosen machine.
//
// Usage:
//
//	capc -pre file.capc         # Fig. 2(b): pre-processed listing
//	capc -S file.capc           # Fig. 2(c): generated assembly
//	capc -run -arch somt file.capc
//
// The exit status is 0 on success, 1 on a file, compile or run error or
// an unknown -arch, and 2 on a bad flag or a missing file argument.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/cpu"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pre := fs.Bool("pre", false, "print the pre-processed (coworker->switch) listing")
	asmOut := fs.Bool("S", false, "print the generated assembly")
	execute := fs.Bool("run", false, "run the program")
	arch := fs.String("arch", "somt", "somt|smt|superscalar (with -run)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "capc: "+format+"\n", args...)
		return 1
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: capc [-pre] [-S] [-run -arch X] file.capc")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail("%v", err)
	}
	b, err := core.BuildCapC(fs.Arg(0), string(src))
	if err != nil {
		return fail("%v", err)
	}
	if *pre {
		fmt.Fprintln(stdout, "// pre-processed (Fig. 2(b) stage)")
		fmt.Fprint(stdout, b.Compiled.PreProcessed)
	}
	if *asmOut {
		fmt.Fprintln(stdout, "# post-processed assembly (Fig. 2(c) stage)")
		fmt.Fprint(stdout, b.Compiled.Asm)
	}
	if *execute {
		var cfg cpu.Config
		switch *arch {
		case "somt":
			cfg = cpu.SOMTConfig()
		case "smt":
			cfg = cpu.SMTConfig()
		case "superscalar":
			cfg = cpu.SuperscalarConfig()
		default:
			return fail("unknown arch %q", *arch)
		}
		res, err := core.RunTiming(b.Program, cfg)
		if err != nil {
			return fail("%v", err)
		}
		for _, v := range res.UserOutput() {
			fmt.Fprintln(stdout, v)
		}
		s := res.Stats
		fmt.Fprintf(stderr, "cycles=%d insts=%d ipc=%.2f divisions=%d/%d\n",
			s.Cycles, s.Insts, s.IPC(), s.DivGranted, s.DivRequested)
	}
	if !*pre && !*asmOut && !*execute {
		fmt.Fprintln(stderr, "compiled OK (use -pre, -S or -run)")
	}
	return 0
}
