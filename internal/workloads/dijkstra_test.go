package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

func TestGenGraphShape(t *testing.T) {
	rng := RandFor(1, 0)
	in := GenGraph(rng, 100, 4, 10)
	if in.N != 100 || len(in.EOff) != 101 {
		t.Fatalf("bad shape: N=%d len(EOff)=%d", in.N, len(in.EOff))
	}
	if int(in.EOff[100]) != len(in.EDst) || len(in.EDst) != len(in.EWgt) {
		t.Fatal("CSR arrays inconsistent")
	}
	for u := 0; u < in.N; u++ {
		if in.EOff[u+1] < in.EOff[u] {
			t.Fatal("offsets not monotone")
		}
		for e := in.EOff[u]; e < in.EOff[u+1]; e++ {
			if in.EDst[e] < 0 || int(in.EDst[e]) >= in.N {
				t.Fatalf("edge target out of range: %d", in.EDst[e])
			}
			if in.EWgt[e] < 1 {
				t.Fatal("non-positive weight")
			}
		}
	}
}

func TestRefDijkstraSmall(t *testing.T) {
	// 0 -> 1 (w=2), 0 -> 2 (w=10), 1 -> 2 (w=3): dist = [0, 2, 5].
	in := &DijkstraInput{
		N:      3,
		Source: 0,
		EOff:   []int32{0, 2, 3, 3},
		EDst:   []int32{1, 2, 2},
		EWgt:   []int32{2, 10, 3},
	}
	d := RefDijkstra(in)
	if d[0] != 0 || d[1] != 2 || d[2] != 5 {
		t.Fatalf("dist = %v", d)
	}
}

func TestDijkstraFunctionalMatchesReference(t *testing.T) {
	// Run the component program on the functional machine across thread
	// bounds; the relaxation must converge to the reference distances.
	rng := RandFor(2, 7)
	in := GenGraph(rng, 60, 3, 9)
	p, err := dijkstraImage(in, VariantComponent)
	if err != nil {
		t.Fatal(err)
	}
	want := RefDijkstra(in)
	for _, threads := range []int{1, 4, 16} {
		m, err := core.RunFunctional(p, threads, 200_000_000)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		for v := 0; v < in.N; v++ {
			got, err := core.ReadWord(m.Mem, p, "g_dist", v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[v] {
				t.Fatalf("threads=%d dist[%d]=%d want %d", threads, v, got, want[v])
			}
		}
	}
}

func TestDijkstraTimingAllArchs(t *testing.T) {
	rng := RandFor(3, 1)
	in := GenGraph(rng, 50, 3, 9)
	cycles := map[string]uint64{}
	for _, a := range PaperArchs() {
		res, err := RunDijkstra(in, a.Variant, a.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		cycles[a.Name] = res.Cycles
		if res.Cycles == 0 {
			t.Fatalf("%s: zero cycles", a.Name)
		}
	}
	t.Logf("cycles: %v", cycles)
}

func TestDijkstraSOMTUsesDivisions(t *testing.T) {
	rng := RandFor(4, 2)
	in := GenGraph(rng, 80, 4, 9)
	res, err := RunDijkstra(in, VariantComponent, cpu.SOMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.DivRequested == 0 {
		t.Fatal("component Dijkstra should probe the architecture")
	}
	if s.DivGranted == 0 {
		t.Fatal("SOMT should grant divisions")
	}
	if s.Deaths == 0 {
		t.Fatal("sub-optimal path workers should die")
	}
}

func TestCapRound(t *testing.T) {
	if capRound(1) != 64 || capRound(65) != 128 || capRound(1024) != 1024 || capRound(100_000) != 100_000 {
		t.Fatal("capRound wrong")
	}
}
