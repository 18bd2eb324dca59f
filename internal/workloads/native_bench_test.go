package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/capsule"
)

// BenchmarkNative* compare the goroutine capsule runtime against the
// sequential Go reference implementation of the same algorithm, across
// input sizes. Every native iteration validates its output against the
// reference (so even `-benchtime 1x` doubles as a correctness check) and
// reports the division-refusal statistics per op.

func reportDivisionStats(b *testing.B, rt *capsule.Runtime) {
	b.Helper()
	s := rt.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(s.Probes)/n, "probes/op")
	b.ReportMetric(float64(s.NoCtxDenies+s.ThrottleDenies)/n, "refusals/op")
	b.ReportMetric(100*s.GrantRate(), "grant_%")
	b.ReportMetric(float64(s.PeakWorkers), "peak_workers")
}

func BenchmarkNativeQuickSort(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 17} {
		list := GenList(RandFor(201, n), ListUniform, n)
		want := append([]int64(nil), list...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp := append([]int64(nil), list...)
				sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
			}
		})
		b.Run(fmt.Sprintf("native/n=%d", n), func(b *testing.B) {
			rt := capsule.NewDefault()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := NativeQuickSort(rt, list)
				for j := range want {
					if got[j] != want[j] {
						b.Fatalf("arr[%d] = %d, want %d", j, got[j], want[j])
					}
				}
			}
			b.StopTimer()
			reportDivisionStats(b, rt)
		})
	}
}

func BenchmarkNativeDijkstra(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		in := GenGraph(RandFor(202, n), n, 4, 9)
		want := RefDijkstra(in)

		b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RefDijkstra(in)
			}
		})
		b.Run(fmt.Sprintf("native/n=%d", n), func(b *testing.B) {
			rt := capsule.NewDefault()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := NativeDijkstra(rt, in)
				for v := range want {
					if got[v] != want[v] {
						b.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
					}
				}
			}
			b.StopTimer()
			reportDivisionStats(b, rt)
		})
	}
}

func BenchmarkNativeLZW(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		in := GenLZW(RandFor(203, n), n)
		want := RefLZWMatch(in, LZWChunk)

		b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RefLZWMatch(in, LZWChunk)
			}
		})
		b.Run(fmt.Sprintf("native/n=%d", n), func(b *testing.B) {
			rt := capsule.NewDefault()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := NativeLZW(rt, in); got != want {
					b.Fatalf("codes = %d, want %d", got, want)
				}
			}
			b.StopTimer()
			reportDivisionStats(b, rt)
		})
	}
}

func BenchmarkNativePerceptron(b *testing.B) {
	for _, neurons := range []int{1 << 10, 1 << 13} {
		in := GenPerceptron(RandFor(204, neurons), neurons, 3, 1)
		wantW, wantM := RefPerceptron(in)

		b.Run(fmt.Sprintf("sequential/n=%d", neurons), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RefPerceptron(in)
			}
		})
		b.Run(fmt.Sprintf("native/n=%d", neurons), func(b *testing.B) {
			rt := capsule.NewDefault()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gotW, gotM := NativePerceptron(rt, in)
				if gotM != wantM {
					b.Fatalf("mistakes = %d, want %d", gotM, wantM)
				}
				for j := range wantW {
					if gotW[j] != wantW[j] {
						b.Fatalf("w[%d] = %d, want %d", j, gotW[j], wantW[j])
					}
				}
			}
			b.StopTimer()
			reportDivisionStats(b, rt)
		})
	}
}

// BenchmarkNativeCoarse runs the benchmark's native_coarse inputs (a
// 2¹⁷-element quicksort, 2¹⁹ LZW symbols, 2¹⁷ perceptron neurons) on a
// Group and on Sequential(), with the inputs generated outside the loop:
// whether a division pays for itself, without input generation in the
// measurement. Every run's result is checked against Sequential()'s.
func BenchmarkNativeCoarse(b *testing.B) {
	rt := capsule.New(capsule.Config{Contexts: runtime.GOMAXPROCS(0), Throttle: true})
	defer rt.Close()
	list := GenList(RandFor(205, 1<<17), ListUniform, 1<<17)
	text := GenLZW(RandFor(206, 1<<19), 1<<19)
	pin := GenPerceptron(RandFor(207, 1<<17), 1<<17, GenPerceptronPats, GenPerceptronEpochs)
	for _, w := range []struct {
		name string
		run  func(capsule.Domain) uint64
	}{
		{"quicksort", func(d capsule.Domain) uint64 { return checksum(NativeQuickSort(d, list)) }},
		{"lzw", func(d capsule.Domain) uint64 { return uint64(NativeLZW(d, text)) }},
		{"perceptron", func(d capsule.Domain) uint64 {
			w, m := NativePerceptron(d, pin)
			return checksum(w) ^ uint64(m)
		}},
	} {
		want := w.run(rt.Sequential())
		for _, dom := range []struct {
			name string
			get  func() capsule.Domain
		}{
			{"group", func() capsule.Domain { return rt.NewGroup() }},
			{"sequential", rt.Sequential},
		} {
			b.Run(w.name+"/"+dom.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if got := w.run(dom.get()); got != want {
						b.Fatalf("result %d, want %d", got, want)
					}
				}
			})
		}
	}
}

// BenchmarkNativeRequestSmall is one small native_fine request end to
// end: RunRequest(quicksort, 64) on a Group, input generation included,
// checked against the sorted math/rand input's checksum. It prices a
// request's fixed costs: seeding the generator, the Group, the result.
func BenchmarkNativeRequestSmall(b *testing.B) {
	const n, seed = 64, 3
	list := GenList(rand.New(rand.NewSource(seed)), ListUniform, n)
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	want := checksum(list)
	rt := capsule.New(capsule.Config{Contexts: runtime.GOMAXPROCS(0), Throttle: true})
	defer rt.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunRequest(rt.NewGroup(), "quicksort", n, seed)
		if err != nil {
			b.Fatal(err)
		}
		if res.Checksum != want {
			b.Fatalf("checksum %d, want %d", res.Checksum, want)
		}
	}
}

// BenchmarkNativeGenLZW generates native_coarse's 2¹⁹-symbol LZW text
// from NewRand and from math/rand: the per-draw cost of the lazily
// seeded source once its register is full, which must not exceed
// math/rand's. Both texts must be equal.
func BenchmarkNativeGenLZW(b *testing.B) {
	const n, seed = 1 << 19, 206
	want := GenLZW(rand.New(rand.NewSource(seed)), n).Text
	for _, g := range []struct {
		name string
		rng  func() *rand.Rand
	}{
		{"NewRand", func() *rand.Rand { return NewRand(seed) }},
		{"math_rand", func() *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := GenLZW(g.rng(), n).Text; !bytes.Equal(got, want) {
					b.Fatal("text differs from math/rand's")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/symbol")
		})
	}
}

// BenchmarkNativeRuntimeOverhead measures the raw probe/divide round trip:
// the cost a division site pays when the pool is exhausted (the common
// case in saturated runs) and when a spawn is granted.
func BenchmarkNativeRuntimeOverhead(b *testing.B) {
	b.Run("probe-refused", func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: 1, Throttle: false})
		hold, _ := rt.Probe()
		defer rt.Release(hold)
		for i := 0; i < b.N; i++ {
			if _, ok := rt.Probe(); ok {
				b.Fatal("unexpected grant")
			}
		}
	})
	b.Run("spawn-join", func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: 2, Throttle: false})
		for i := 0; i < b.N; i++ {
			rt.TryDivide(func() {})
			rt.Join()
		}
	})
}
