package workloads

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/capsule"
)

// nativeRT returns a runtime that exercises real division even on a
// single-CPU machine: an explicit multi-token pool forces workers to
// interleave.
func nativeRT(contexts int) *capsule.Runtime {
	return capsule.New(capsule.Config{Contexts: contexts, Throttle: true})
}

// nativeGroup is a Group on a fresh nativeRT(contexts), closed when t
// ends.
func nativeGroup(t testing.TB, contexts int) *capsule.Group {
	rt := nativeRT(contexts)
	t.Cleanup(rt.Close)
	return rt.NewGroup()
}

func TestNativeQuickSortCrossVal(t *testing.T) {
	for kind := ListKind(0); kind < numListKinds; kind++ {
		for _, n := range []int{0, 1, 7, 50, 2000} {
			rng := RandFor(11, int(kind)*100+n)
			list := GenList(rng, kind, n)
			got := NativeQuickSort(nativeGroup(t, 4), list)
			want := append([]int64(nil), list...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/n=%d: arr[%d] = %d, want %d", kind, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNativeDijkstraCrossVal(t *testing.T) {
	for _, n := range []int{1, 10, 100, 600} {
		for seed := int64(1); seed <= 3; seed++ {
			in := GenGraph(RandFor(seed, n), n, 4, 9)
			got := NativeDijkstra(nativeGroup(t, 4), in)
			want := RefDijkstra(in)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("n=%d seed=%d: dist[%d] = %d, want %d", n, seed, v, got[v], want[v])
				}
			}
		}
	}
}

func TestNativeLZWCrossVal(t *testing.T) {
	for _, n := range []int{0, 8, 9, 64, 4096} {
		for seed := int64(1); seed <= 3; seed++ {
			in := GenLZW(RandFor(seed, n), n)
			got := NativeLZW(nativeGroup(t, 4), in)
			if want := RefLZWMatch(in, LZWChunk); got != want {
				t.Fatalf("n=%d seed=%d: codes = %d, want %d", n, seed, got, want)
			}
		}
	}
}

func TestNativePerceptronCrossVal(t *testing.T) {
	for _, neurons := range []int{4, 16, 257, 1024} {
		in := GenPerceptron(RandFor(7, neurons), neurons, 3, 2)
		gotW, gotM := NativePerceptron(nativeGroup(t, 4), in)
		wantW, wantM := RefPerceptron(in)
		if gotM != wantM {
			t.Fatalf("neurons=%d: mistakes = %d, want %d", neurons, gotM, wantM)
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("neurons=%d: w[%d] = %d, want %d", neurons, i, gotW[i], wantW[i])
			}
		}
	}
}

// exhausted returns a runtime with every context token held until the
// test ends: each probe on it is refused.
func exhausted(t testing.TB) *capsule.Runtime {
	rt := nativeRT(2)
	var held []*capsule.Context
	for c, ok := rt.Probe(); ok; c, ok = rt.Probe() {
		held = append(held, c)
	}
	t.Cleanup(func() {
		for _, c := range held {
			rt.Release(c)
		}
		rt.Close()
	})
	return rt
}

// TestNativeDeterminism checks the contract the native implementations
// promise: the result is a pure function of the input, equal to the Go
// reference's across repeated runs, context-pool sizes, throttle settings
// and every kind of Domain (a Group, a Group whose every probe is refused,
// Sequential), no matter how the workers interleave.
func TestNativeDeterminism(t *testing.T) {
	configs := []capsule.Config{
		{Contexts: 1},
		{Contexts: 2, Throttle: true},
		{Contexts: 8},
		{Contexts: 8, Throttle: true},
	}
	rt := nativeRT(4)
	defer rt.Close()
	domains := map[string]capsule.Domain{
		"Group":           rt.NewGroup(),
		"exhausted Group": exhausted(t).NewGroup(),
		"Sequential":      rt.Sequential(),
	}
	for _, name := range NativeNames() {
		t.Run(name, func(t *testing.T) {
			want, err := RefRequest(name, 300, 42)
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range configs {
				for rep := 0; rep < 3; rep++ {
					crt := capsule.New(cfg)
					res, err := RunRequest(crt.NewGroup(), name, 300, 42)
					crt.Close()
					if err != nil {
						t.Fatal(err)
					}
					if res.Checksum != want {
						t.Fatalf("config %d rep %d: checksum %d, Go reference %d", i, rep, res.Checksum, want)
					}
				}
			}
			for dname, dom := range domains {
				res, err := RunRequest(dom, name, 300, 42)
				if err != nil {
					t.Fatal(err)
				}
				if res.Checksum != want {
					t.Fatalf("%s: checksum %d, Go reference %d", dname, res.Checksum, want)
				}
			}
		})
	}
}

// TestNativeRefusedOffersAllocateNothing holds every division site to the
// paper's price: a refused probe costs no allocation. Each workload runs
// on a Group whose runtime has every token held, so all of its offers are
// refused. It may allocate no more per run than on Sequential(), which
// asks nothing of the pool, and — since a site that builds its closure
// before it learns the answer allocates on Sequential() too — no more on
// an input twice the size, which makes twice the offers: what a run
// allocates for itself does not grow with its offers. Each count is the
// least of three measurements: an allocation by another goroutine during
// the window can only add to one. Sizes are whole grains, so the range
// sites offer about once per divGrain of input.
func TestNativeRefusedOffersAllocateNothing(t *testing.T) {
	rt := exhausted(t)
	allocs := func(f func()) float64 {
		least := testing.AllocsPerRun(5, f)
		for i := 0; i < 2; i++ {
			least = min(least, testing.AllocsPerRun(5, f))
		}
		return least
	}
	small := 16 * divGrain
	runs := map[string]func(n int) func(capsule.Domain){
		"quicksort": func(n int) func(capsule.Domain) {
			list := GenList(RandFor(5, n), ListUniform, n)
			return func(d capsule.Domain) { NativeQuickSort(d, list) }
		},
		"dijkstra": func(n int) func(capsule.Domain) {
			in := GenGraph(RandFor(5, n), n/8, GenDijkstraMaxDeg, GenDijkstraMaxW)
			return func(d capsule.Domain) { NativeDijkstra(d, in) }
		},
		"lzw": func(n int) func(capsule.Domain) {
			in := GenLZW(RandFor(5, n), n)
			return func(d capsule.Domain) { NativeLZW(d, in) }
		},
		"perceptron": func(n int) func(capsule.Domain) {
			in := GenPerceptron(RandFor(5, n), n, GenPerceptronPats, GenPerceptronEpochs)
			return func(d capsule.Domain) { NativePerceptron(d, in) }
		},
	}
	for _, name := range NativeNames() {
		half, full := runs[name](small), runs[name](2*small)
		g := rt.NewGroup()
		seq := allocs(func() { full(rt.Sequential()) })
		grp := allocs(func() { full(g) })
		before := g.Stats().Probes
		halfAllocs := allocs(func() { half(g) })
		// 18 runs of the small input (three measurements of a warm-up
		// and five runs), each offering at least once per two grains.
		if gs := g.Stats(); gs.Granted != 0 || gs.Probes-before < uint64(18*small/(2*divGrain)) {
			t.Fatalf("%s: group stats %+v, want many offers, all refused", name, gs)
		}
		if grp > seq {
			t.Errorf("%s: %v allocs per run with every offer refused, %v on Sequential", name, grp, seq)
		}
		if grp > halfAllocs {
			t.Errorf("%s: %v allocs per run, %v at half the size: refused offers allocate", name, grp, halfAllocs)
		}
	}
}

// TestNativeOffersScaleWithGrain pins the grain at the three range-shaped
// division sites. With every offer refused, a run offers about once per
// divGrain of work — not once per chunk, as the CapC sources do — and at
// sizes on either side of the grain every kind of Domain still gives the
// Go reference's answer.
func TestNativeOffersScaleWithGrain(t *testing.T) {
	live := nativeRT(4)
	defer live.Close()
	domains := map[string]capsule.Domain{
		"Group":      live.NewGroup(),
		"Sequential": live.Sequential(),
	}
	refused := exhausted(t)
	// offers runs f on a fresh Group whose every probe is refused and
	// returns how many offers it made.
	offers := func(f func(capsule.Domain)) int {
		g := refused.NewGroup()
		f(g)
		gs := g.Stats()
		if gs.Granted != 0 {
			t.Fatalf("exhausted group granted: %+v", gs)
		}
		return int(gs.Probes)
	}
	// Each call of a range site on n units offers between n/(4·divGrain)
	// and 2·(n/divGrain + 1) times.
	within := func(site string, n, got, calls int) {
		t.Helper()
		if lo, hi := calls*n/(4*divGrain), calls*2*(n/divGrain+1); got < lo || got > hi {
			t.Errorf("%s n=%d: %d offers over %d calls, want %d..%d", site, n, got, calls, lo, hi)
		}
	}
	for _, n := range []int{divGrain - 1, divGrain, 3*divGrain + LZWChunk + 1, 64 * divGrain} {
		list := GenList(RandFor(9, n), ListUniform, n)
		want := append([]int64(nil), list...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		within("quicksort", n, offers(func(d capsule.Domain) { NativeQuickSort(d, list) }), 1)

		text := GenLZW(RandFor(9, n), n)
		wantCodes := RefLZWMatch(text, LZWChunk)
		within("lzw", n, offers(func(d capsule.Domain) { NativeLZW(d, text) }), 1)

		pin := GenPerceptron(RandFor(9, n), n, 3, 2)
		wantW, wantM := RefPerceptron(pin)
		calls := pin.Patterns*pin.Epochs + int(wantM) // forwards + updates
		within("perceptron", n, offers(func(d capsule.Domain) { NativePerceptron(d, pin) }), calls)

		for dname, dom := range domains {
			got := NativeQuickSort(dom, list)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("quicksort %s n=%d: arr[%d] = %d, want %d", dname, n, i, got[i], want[i])
				}
			}
			if got := NativeLZW(dom, text); got != wantCodes {
				t.Fatalf("lzw %s n=%d: codes = %d, want %d", dname, n, got, wantCodes)
			}
			gotW, gotM := NativePerceptron(dom, pin)
			if gotM != wantM {
				t.Fatalf("perceptron %s n=%d: mistakes = %d, want %d", dname, n, gotM, wantM)
			}
			for i := range wantW {
				if gotW[i] != wantW[i] {
					t.Fatalf("perceptron %s n=%d: w[%d] = %d, want %d", dname, n, i, gotW[i], wantW[i])
				}
			}
		}
	}
}

// TestNativeDijkstraOffersPerNode pins Dijkstra's division site: with
// every offer refused, one worker settles each reachable node once and
// offers once per settled node with at least two out-edges — not once per
// edge visit, as the CapC source does — and every kind of Domain, granted
// or not, still gives the Go reference's distances.
func TestNativeDijkstraOffersPerNode(t *testing.T) {
	live := nativeRT(4)
	defer live.Close()
	domains := map[string]capsule.Domain{
		"Group":      live.NewGroup(),
		"Sequential": live.Sequential(),
	}
	refused := exhausted(t)
	for _, n := range []int{1, 2, 64, 512, 1024} {
		in := GenGraph(RandFor(13, n), n, GenDijkstraMaxDeg, GenDijkstraMaxW)
		want := RefDijkstra(in)
		forked := 0 // reachable nodes with >= 2 out-edges
		for v, d := range want {
			if d < DijkstraInf && in.EOff[v+1]-in.EOff[v] >= 2 {
				forked++
			}
		}
		g := refused.NewGroup()
		NativeDijkstra(g, in)
		if gs := g.Stats(); gs.Granted != 0 || gs.Probes > uint64(forked) {
			t.Errorf("n=%d: group stats %+v, want at most %d offers (reachable nodes with >= 2 out-edges), none granted",
				n, gs, forked)
		}
		for dname, dom := range domains {
			got := NativeDijkstra(dom, in)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s n=%d: dist[%d] = %d, want %d", dname, n, v, got[v], want[v])
				}
			}
		}
	}
}

// lockCounter is a Domain that counts its Locks.
type lockCounter struct {
	capsule.Domain
	locks int
}

func (c *lockCounter) Lock(key uint64) {
	c.locks++
	c.Domain.Lock(key)
}

// TestNativeDijkstraSettlesOnce holds Dijkstra on one worker to the cost
// of settling each node once: a lock to check each popped entry and one
// per relaxed edge, so no more than 2·E + 1 Locks over E edges. A
// depth-first walk re-walks a subgraph each time a shorter path to it
// turns up, and takes tens of Locks per edge from n = 512 up.
func TestNativeDijkstraSettlesOnce(t *testing.T) {
	rt := nativeRT(1)
	defer rt.Close()
	for _, n := range []int{64, 512, 2048} {
		in := GenGraph(RandFor(17, n), n, GenDijkstraMaxDeg, GenDijkstraMaxW)
		dom := &lockCounter{Domain: rt.Sequential()}
		got := NativeDijkstra(dom, in)
		if e := len(in.EDst); dom.locks > 2*e+1 {
			t.Errorf("n=%d: %d Locks over %d edges, want at most %d", n, dom.locks, e, 2*e+1)
		}
		want := RefDijkstra(in)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("n=%d: dist[%d] = %d, want %d", n, v, got[v], want[v])
			}
		}
	}
}

// TestNativeContention runs all four workloads concurrently, each on a
// Group of its own 8-context runtime, and checks each checksum against
// the Go reference — primarily a race-detector target.
func TestNativeContention(t *testing.T) {
	done := make(chan error, len(NativeNames()))
	for _, name := range NativeNames() {
		g := nativeGroup(t, 8)
		go func(name string) {
			res, err := RunRequest(g, name, 500, 3)
			if err == nil {
				var want uint64
				if want, err = RefRequest(name, 500, 3); err == nil && res.Checksum != want {
					err = fmt.Errorf("%s: checksum %d, Go reference %d", name, res.Checksum, want)
				}
			}
			done <- err
		}(name)
	}
	for range NativeNames() {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunNativeStatsAndErrors: a run on a Group of a fresh runtime leaves
// consistent runtime Stats once RunRequest has joined the group, as
// caprun reports them, and an unknown workload is an error from both
// RunRequest and RefRequest that lists the known ones.
func TestRunNativeStatsAndErrors(t *testing.T) {
	rt := nativeRT(4)
	defer rt.Close()
	res, err := RunRequest(rt.NewGroup(), "dijkstra", 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := RefRequest("dijkstra", 400, 9); err != nil || res.Checksum != want {
		t.Fatalf("checksum %d, Go reference %d (err %v)", res.Checksum, want, err)
	}
	s := rt.Stats()
	if s.Probes == 0 {
		t.Fatal("no probes recorded: division sites not exercised")
	}
	if s.Granted+s.NoCtxDenies+s.ThrottleDenies != s.Probes {
		t.Fatalf("probe accounting broken: %+v", s)
	}
	if s.Deaths != s.TotalWorkers {
		t.Fatalf("deaths (%d) != workers (%d) after a completed run", s.Deaths, s.TotalWorkers)
	}

	_, runErr := RunRequest(rt.NewGroup(), "nosuch", 10, 1)
	_, refErr := RefRequest("nosuch", 10, 1)
	for _, err := range []error{runErr, refErr} {
		if err == nil {
			t.Fatal("unknown workload accepted")
		}
		for _, name := range NativeNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not list known workload %q", err, name)
			}
		}
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		VariantComponent:  "component",
		VariantImperative: "imperative",
	} {
		if got := v.String(); got != want {
			t.Fatalf("Variant(%d).String() = %q, want %q", v, got, want)
		}
	}
}
