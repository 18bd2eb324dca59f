// Throttling: the Fig. 7 experiment — LZW and Perceptron with their tiny
// components, run with the death-rate division throttle on and off.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workloads"
)

func main() {
	rng := workloads.NewRand(7)
	on := cpu.SOMTConfig()
	off := cpu.SOMTConfig()
	off.ThrottleOn = false

	fmt.Println("division throttling of small parallel sections (Fig. 7)")
	fmt.Printf("%-12s %-9s %10s %8s %10s\n", "benchmark", "throttle", "cycles", "grants", "deny-throt")

	lzwIn := workloads.GenLZW(rng, 4096) // the paper's N = 4096 characters
	show("LZW", on, off, func(cfg cpu.Config) (*core.RunResult, error) {
		return workloads.RunLZW(lzwIn, workloads.VariantComponent, cfg)
	})

	pin := workloads.GenPerceptron(rng, 2048, 4, 1)
	show("Perceptron", on, off, func(cfg cpu.Config) (*core.RunResult, error) {
		return workloads.RunPerceptron(pin, workloads.VariantComponent, cfg)
	})
}

func show(name string, on, off cpu.Config, run func(cpu.Config) (*core.RunResult, error)) {
	r1, err := run(on)
	if err != nil {
		log.Fatalf("%s on: %v", name, err)
	}
	r2, err := run(off)
	if err != nil {
		log.Fatalf("%s off: %v", name, err)
	}
	fmt.Printf("%-12s %-9s %10d %8d %10d\n", name, "on", r1.Cycles, r1.Stats.DivGranted, r1.Stats.ThrottleDenies)
	fmt.Printf("%-12s %-9s %10d %8d %10d\n", name, "off", r2.Cycles, r2.Stats.DivGranted, r2.Stats.ThrottleDenies)
}
