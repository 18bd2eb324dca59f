// Dijkstra: the paper's running example (Figs. 1-3). Runs the component
// shortest-path program on the three machines over a handful of random
// graphs and prints a miniature of the Fig. 3 distribution comparison,
// validating every run against a reference implementation.
package main

import (
	"fmt"
	"log"

	"repro/internal/workloads"
)

func main() {
	const graphs = 5
	const nodes = 150

	type row struct {
		name   string
		cycles []uint64
	}
	rows := []*row{}
	for _, a := range workloads.PaperArchs() {
		rows = append(rows, &row{name: a.Name})
	}

	for g := 0; g < graphs; g++ {
		rng := workloads.NewRand(int64(100 + g))
		in := workloads.GenGraph(rng, nodes, 4, 9)
		for i, a := range workloads.PaperArchs() {
			variant := workloads.VariantComponent
			if a.Name == "superscalar" {
				variant = workloads.VariantImperative
			}
			res, err := workloads.RunDijkstra(in, variant, a.Cfg)
			if err != nil {
				log.Fatalf("%s graph %d: %v", a.Name, g, err)
			}
			rows[i].cycles = append(rows[i].cycles, res.Cycles)
		}
	}

	fmt.Printf("Dijkstra, %d random graphs x %d nodes (all runs validated)\n\n", graphs, nodes)
	fmt.Printf("%-12s %s\n", "machine", "cycles per data set")
	for _, r := range rows {
		fmt.Printf("%-12s", r.name)
		for _, c := range r.cycles {
			fmt.Printf(" %8d", c)
		}
		fmt.Println()
	}
	fmt.Println("\npaper shape: SOMT fastest and most stable; superscalar slowest (Fig. 3)")
}
