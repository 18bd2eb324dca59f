package exp

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cpu"
)

func tiny() Params { return Params{Scale: 0.01, Seed: 2} }

// cell parses column col of the first row that begins with key ("%" may
// follow the number).
func cell(t *testing.T, r *Result, col int, key ...string) float64 {
	t.Helper()
rows:
	for _, row := range r.Rows {
		for i, k := range key {
			if row[i] != k {
				continue rows
			}
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
		if err != nil {
			t.Fatalf("%s %v: %v", r.ID, key, err)
		}
		return v
	}
	t.Fatalf("%s: no row %v", r.ID, key)
	return 0
}

// checkDistribution holds the shape Figs. 3 and 5 share: SOMT is the
// fastest machine and steadier than static SMT, the superscalar the
// slowest.
func checkDistribution(t *testing.T, r *Result) {
	t.Helper()
	mean := func(m string) float64 { return cell(t, r, 1, m) }
	spread := func(m string) float64 { return cell(t, r, 4, m) / mean(m) }
	if !(mean("somt") < mean("smt-static") && mean("smt-static") < mean("superscalar")) {
		t.Errorf("%s: mean cycles somt %v, smt-static %v, superscalar %v: want increasing",
			r.ID, mean("somt"), mean("smt-static"), mean("superscalar"))
	}
	if spread("somt") >= spread("smt-static") {
		t.Errorf("%s: stddev/mean somt %.3f, smt-static %.3f: want SOMT steadier", r.ID, spread("somt"), spread("smt-static"))
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablations", "crafty48", "divlat", "fig3", "fig5", "fig6", "fig7", "fig8", "table1", "table2", "table3", "vprcache"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable1Static(t *testing.T) {
	r, err := Run("table1", tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Render()
	for _, want := range []string{"RUU size", "256", "8kB", "Icount 4.4", "200"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Static(t *testing.T) {
	r, err := Run("table2", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestFig3Tiny(t *testing.T) {
	r, err := Run("fig3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("fig3 rows = %v", r.Rows)
	}
	t.Logf("\n%s", r.Render())
	checkDistribution(t, r)
}

func TestFig5Tiny(t *testing.T) {
	r, err := Run("fig5", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("fig5 rows = %v", r.Rows)
	}
	t.Logf("\n%s", r.Render())
	checkDistribution(t, r)
}

func TestFig6Tiny(t *testing.T) {
	r, err := Run("fig6", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no division rows")
	}
}

func TestFig7Tiny(t *testing.T) {
	r, err := Run("fig7", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("fig7 rows = %v", r.Rows)
	}
	t.Logf("\n%s", r.Render())
	// The throttle fires on Perceptron's tiny workers, and only when on.
	if on, off := cell(t, r, 4, "Perceptron", "on"), cell(t, r, 4, "Perceptron", "off"); on == 0 || off != 0 {
		t.Errorf("Perceptron throttle denies: on %v, off %v; want > 0 and 0", on, off)
	}
}

func TestFig8Tiny(t *testing.T) {
	r, err := Run("fig8", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("fig8 rows = %v", r.Rows)
	}
	t.Logf("\n%s", r.Render())
	// Every proxy gains on SOMT overall, and vpr gains the most.
	vpr := cell(t, r, 1, "175.vpr")
	for _, row := range r.Rows {
		if v := cell(t, r, 1, row[0]); v <= 1 || v > vpr {
			t.Errorf("%s overall speedup %v: want > 1 and at most vpr's %v", row[0], v, vpr)
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	r, err := Run("table3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("table3 rows = %v", r.Rows)
	}
	t.Logf("\n%s", r.Render())
}

// TestUngatedRunnersTiny runs the experiments whose paper shapes do not
// hold at tiny() (ROADMAP item 7) for errors and row counts only: a runner
// that fails or drops a row shows here, not first in capbench -all.
func TestUngatedRunnersTiny(t *testing.T) {
	for id, rows := range map[string]int{"divlat": 4, "vprcache": 3, "crafty48": 2, "ablations": 14} {
		t.Run(id, func(t *testing.T) {
			r, err := Run(id, tiny())
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) != rows {
				t.Errorf("%d rows, want %d:\n%s", len(r.Rows), rows, r.Render())
			}
		})
	}
}

func TestDivisionDOT(t *testing.T) {
	dot := DivisionDOT([]cpu.DivisionEvent{{Cycle: 5, Parent: 0, Child: 1}})
	if !strings.Contains(dot, "w0 -> w1") || !strings.Contains(dot, "digraph") {
		t.Fatalf("dot = %s", dot)
	}
}

func TestSummarise(t *testing.T) {
	s := summarise([]uint64{10, 20, 30})
	if s.mean != 20 || s.min != 10 || s.max != 30 {
		t.Fatalf("summary = %+v", s)
	}
	if s.stddev < 8 || s.stddev > 9 {
		t.Fatalf("stddev = %v", s.stddev)
	}
	if z := summarise(nil); z.mean != 0 {
		t.Fatal("empty summary")
	}
}

func TestSqrt(t *testing.T) {
	if v := sqrt(144); v < 11.999 || v > 12.001 {
		t.Fatalf("sqrt(144) = %v", v)
	}
	if sqrt(-1) != 0 || sqrt(0) != 0 {
		t.Fatal("non-positive sqrt")
	}
}

func TestScaledFloors(t *testing.T) {
	p := Params{Scale: 0.001}
	if p.scaled(1000, 50) != 50 {
		t.Fatal("floor not applied")
	}
	if Full().scaled(1000, 50) != 1000 {
		t.Fatal("full scale wrong")
	}
}
