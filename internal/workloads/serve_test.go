package workloads

import (
	"sync"
	"testing"

	"repro/internal/capsule"
)

// TestRunRequestDeterministicAcrossDomains checks the serving contract:
// the same (workload, n, seed) yields the same checksum on per-request
// Groups and on the degraded Sequential domain.
func TestRunRequestDeterministicAcrossDomains(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 4, Throttle: true})
	defer rt.Close()
	for _, wl := range NativeNames() {
		want, err := RunRequest(rt.Sequential(), wl, 300, 42)
		if err != nil {
			t.Fatalf("%s sequential: %v", wl, err)
		}
		if want.Checksum == 0 {
			t.Fatalf("%s: zero checksum (suspicious for n=300)", wl)
		}
		for i := 0; i < 3; i++ {
			got, err := RunRequest(rt.NewGroup(), wl, 300, 42)
			if err != nil {
				t.Fatalf("%s group run %d: %v", wl, i, err)
			}
			if got.Checksum != want.Checksum {
				t.Fatalf("%s: group checksum %d != sequential %d", wl, got.Checksum, want.Checksum)
			}
		}
	}
}

// TestRunRequestMatchesRunNative ties the serving checksums to the Go
// references: for every workload, at a size under one grain and one of
// several grains, RunRequest's checksum equals RefRequest's on
// Sequential, on a Group whose probes are granted and on a Group whose
// every probe is refused.
func TestRunRequestMatchesRunNative(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 4, Throttle: true})
	defer rt.Close()
	refused := exhausted(t)
	for _, wl := range NativeNames() {
		for _, n := range []int{200, 4*divGrain + 7} {
			want, err := RefRequest(wl, n, 7)
			if err != nil {
				t.Fatal(err)
			}
			live := rt.NewGroup()
			for dname, dom := range map[string]capsule.Domain{
				"Sequential":      rt.Sequential(),
				"Group":           live,
				"exhausted Group": refused.NewGroup(),
			} {
				res, err := RunRequest(dom, wl, n, 7)
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", wl, n, dname, err)
				}
				if res.Checksum != want {
					t.Errorf("%s n=%d %s: checksum %d, Go reference %d", wl, n, dname, res.Checksum, want)
				}
			}
			if gs := live.Stats(); n > divGrain && gs.Probes == 0 {
				t.Errorf("%s n=%d: the live group made no offers", wl, n)
			}
		}
	}
}

func TestRunRequestErrors(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 2})
	defer rt.Close()
	if _, err := RunRequest(rt.NewGroup(), "nosuch", 100, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := RunRequest(rt.NewGroup(), "quicksort", 0, 1); err == nil {
		t.Fatal("n = 0 accepted")
	}
	if _, err := RunRequest(rt.NewGroup(), "quicksort", -5, 1); err == nil {
		t.Fatal("negative n accepted")
	}
}

// TestRunRequestConcurrentGroups is the serving pattern in miniature:
// many concurrent requests, each with its own Group, one shared runtime.
func TestRunRequestConcurrentGroups(t *testing.T) {
	rt := capsule.New(capsule.Config{Contexts: 4, Throttle: true})
	defer rt.Close()
	names := NativeNames()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	sums := make([]uint64, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunRequest(rt.NewGroup(), names[i%len(names)], 200, 9)
			if err != nil {
				errs <- err
				return
			}
			sums[i] = res.Checksum
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for j := i + len(names); j < 16; j += len(names) {
			if sums[i] != sums[j] {
				t.Fatalf("request %d and %d (same workload/n/seed) disagree: %d != %d", i, j, sums[i], sums[j])
			}
		}
	}
	rt.Join()
}

// FuzzRunRequest holds RunRequest on a 2-context Group to its reference
// twin RefRequest over the request inputs a server takes from the wire:
// the workload, n and the seed. n is capped at 1024 elements, symbols,
// neurons or nodes, so that one exec stays around a millisecond.
func FuzzRunRequest(f *testing.F) {
	rt := nativeRT(2)
	f.Cleanup(rt.Close)
	f.Fuzz(func(t *testing.T, pick uint8, n uint16, seed int64) {
		names := NativeNames()
		wl := names[int(pick)%len(names)]
		size := int(n)%1024 + 1
		res, err := RunRequest(rt.NewGroup(), wl, size, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RefRequest(wl, size, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checksum != want {
			t.Fatalf("%s n=%d seed=%d: checksum %d, Go reference %d", wl, size, seed, res.Checksum, want)
		}
	})
}
