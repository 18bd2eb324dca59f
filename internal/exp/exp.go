// Package exp regenerates every table and figure of the paper's evaluation
// (Section 5) from the reproduction's simulator, plus sweeps of the SOMT
// design choices the paper fixes (ablations). It is the one producer of
// each artefact. Each experiment is registered by the paper artefact id
// (fig3, fig5, fig6, fig7, fig8, table1, table2, table3, crafty48,
// vprcache, divlat, ablations) and renders a text table in the shape of
// the paper's artefact.
package exp

import (
	"fmt"
	"sort"
	"strings"
)

// Params scales experiments. Scale 1.0 approximates paper-scale inputs;
// tests and quick benches run well below that.
type Params struct {
	Scale float64
	Seed  int64
}

// Quick returns the fast preset used by tests and `capbench` default runs.
func Quick() Params { return Params{Scale: 0.08, Seed: 1} }

// Full returns paper-scale parameters (minutes of simulation).
func Full() Params { return Params{Scale: 1.0, Seed: 1} }

// scaled returns max(lo, round(x*Scale)).
func (p Params) scaled(x, lo int) int {
	v := int(float64(x) * p.Scale)
	if v < lo {
		v = lo
	}
	return v
}

// Result is one rendered experiment.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment generator.
type Runner func(Params) (*Result, error)

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists registered experiments in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(id string, p Params) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	return r(p)
}

// helpers --------------------------------------------------------------------

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
func u(v uint64) string    { return fmt.Sprintf("%d", v) }

// distSummary summarises an execution-time distribution.
type distSummary struct {
	mean, min, max, stddev float64
}

func summarise(xs []uint64) distSummary {
	if len(xs) == 0 {
		return distSummary{}
	}
	var s distSummary
	s.min = float64(xs[0])
	s.max = float64(xs[0])
	var sum float64
	for _, x := range xs {
		v := float64(x)
		sum += v
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := float64(x) - s.mean
		ss += d * d
	}
	s.stddev = sqrt(ss / float64(len(xs)))
	return s
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}
