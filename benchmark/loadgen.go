package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opResult is what one request or in-process op came back with.
type opResult struct {
	err       error
	wrong     bool   // answered, but not with the precomputed checksum
	elapsedNS int64  // the run's own ElapsedNS, 0 when the tier has none
	degraded  bool   // capserve ran it on the Sequential domain
	backend   string // X-Capcluster-Backend, "" when not routed remotely
	seq       bool   // native_coarse: ran in a Sequential slice
}

// target is a tier under load: something that can execute entry idx of
// the plan's pool, expose its layers' monotonic counters, and be torn
// down so that it leaves no listener, runtime or goroutine behind.
type target interface {
	exec(rid uint32, idx int32) opResult
	counters() map[string]float64
	close()
}

type sample struct {
	start    time.Duration // since window start: scheduled send (open loop) or send
	lat      time.Duration // completion − start
	late     time.Duration // open loop: actual send − scheduled send
	ok       bool
	wrong    bool
	degraded bool
	seq      bool
	backend  string
	elapsed  time.Duration
}

// load drives one target from one plan. The cursor survives across
// windows, so a warm-up and the window after it send different stretches
// of the same seeded list.
type load struct {
	plan    *plan
	tg      target
	clients int
	root    spanKind // kClient or kOp
	next    atomic.Int64
}

// window is what one measured stretch produced.
type window struct {
	samples  []sample
	dur      time.Duration // wall time from the first send to the last return
	cpu      time.Duration // process user+sys CPU over dur
	firstErr error         // why the first failed op failed, for summarize's error message
}

// run sends for dur and returns every op that was sent inside it.
//
// Closed loop (plan.Due == nil): each of the clients sends its next
// request when the previous one completes. Open loop: request i is due at
// its scheduled offset whatever happened to the ones before; at most
// `clients` are in flight, a client that is still busy at a due time
// sends late, and latency is counted from the due time — so a stall is
// charged to every request that was scheduled during it.
func (l *load) run(dur time.Duration, rec *recorder) (*window, error) {
	first := l.next.Load()
	open := l.plan.Due != nil
	var dueBase time.Duration
	if open {
		if int(first) >= len(l.plan.Due) {
			return nil, fmt.Errorf("arrival schedule exhausted before the window opened")
		}
		dueBase = l.plan.Due[first]
	}
	per := make([][]sample, l.clients)
	errs := make([]error, l.clients)
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	cpu0 := readRusage().cpu
	start := time.Now()
	var recBase time.Duration
	if rec != nil {
		recBase = start.Sub(rec.base)
	}
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]sample, 0, 1<<14)
			for {
				i := l.next.Add(1) - 1
				var due, late time.Duration
				if open {
					if int(i) >= len(l.plan.Due) {
						exhausted.Store(true)
						break
					}
					due = l.plan.Due[i] - dueBase
					if due >= dur {
						break
					}
					sleepUntil(start, due)
					late = max(time.Since(start)-due, 0)
				} else {
					due = time.Since(start)
					if due >= dur {
						break
					}
				}
				rid := uint32(i + 1)
				res := l.tg.exec(rid, l.plan.List[int(i)%len(l.plan.List)])
				end := time.Since(start)
				if res.err != nil && errs[c] == nil {
					errs[c] = res.err
				}
				if rec != nil {
					b := int64(recBase)
					if late > 0 {
						rec.add(kLate, rid, b+int64(due), b+int64(due+late))
					}
					if l.root == kClient && res.elapsedNS > 0 {
						rec.addDuration(kWorkload, rid, res.elapsedNS)
					}
					rec.add(l.root, rid, b+int64(due+late), b+int64(end))
				}
				buf = append(buf, sample{
					start: due, lat: end - due, late: late,
					ok: res.err == nil && !res.wrong, wrong: res.err == nil && res.wrong,
					degraded: res.degraded, seq: res.seq, backend: res.backend,
					elapsed: time.Duration(res.elapsedNS),
				})
			}
			per[c] = buf
		}(c)
	}
	wg.Wait()
	w := &window{dur: time.Since(start), cpu: readRusage().cpu - cpu0}
	if exhausted.Load() {
		return nil, fmt.Errorf("arrival schedule exhausted inside the window")
	}
	for c, b := range per {
		w.samples = append(w.samples, b...)
		if w.firstErr == nil {
			w.firstErr = errs[c]
		}
	}
	return w, nil
}

// sleepUntil returns when `due` has passed since start, to within tens
// of microseconds. time.Sleep alone cannot: an idle Go process parks in
// epoll_wait, whose timeout is in whole milliseconds rounded up, so every
// send would go out up to a millisecond late and the open loop would
// report its own timer as latency. The last stretch is therefore a raw
// nanosleep; it holds no CPU, and the runtime hands the parked P to
// whoever needs it.
func sleepUntil(start time.Time, due time.Duration) {
	const fine = 1200 * time.Microsecond
	if wait := due - time.Since(start); wait > fine {
		time.Sleep(wait - fine)
	}
	if wait := due - time.Since(start); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) only sends slightly early
	}
}

// summary is a window reduced to the numbers a user sees.
type summary struct {
	attempted, ok, failed, wrong int
	opsPerS                      float64 // correct ops ÷ the window's wall time
	p50, p95                     time.Duration
	within                       float64 // share of ops sent that came back correct within the limit
	cpuMSPerOp                   float64
}

// summarize applies the accounting rules: an op that failed, was shed or
// answered with the wrong checksum has no latency, counts as failed, and
// misses the limit. Everything is taken over the whole window.
func summarize(w *window, limit time.Duration) (summary, error) {
	s := summary{attempted: len(w.samples)}
	within := 0
	for _, x := range w.samples {
		switch {
		case x.ok:
			s.ok++
			if x.lat <= limit {
				within++
			}
		case x.wrong:
			s.wrong++
			s.failed++
		default:
			s.failed++
		}
	}
	if s.ok == 0 {
		return s, fmt.Errorf("no correct op completed in the window (%d attempted; first error: %v)", s.attempted, w.firstErr)
	}
	s.within = float64(within) / float64(s.attempted)
	s.opsPerS = float64(s.ok) / w.dur.Seconds()
	s.cpuMSPerOp = ms(w.cpu) / float64(s.ok)
	lat := sortedLat(w)
	s.p50 = time.Duration(lat[(len(lat)-1)/2]) // nearest rank; loadgen.samples says of how many
	// A p95 with fewer than ten samples beyond it reads 0.
	s.p95 = time.Duration(percentileOrZero(lat, 95))
	return s, nil
}

// sortedLat is the latencies of a window's correct ops, ascending.
// native_coarse's Sequential slices are the yardstick of
// speedup_vs_sequential, not part of the workload: they have no say in
// its percentiles, so that a traced run's p50 is the Group path's, like
// an untraced run's.
func sortedLat(w *window) []int64 {
	var lat []int64
	for _, x := range w.samples {
		if x.ok && !x.seq {
			lat = append(lat, int64(x.lat))
		}
	}
	sortInt64(lat)
	return lat
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(ns float64) float64      { return ns / 1e3 }
