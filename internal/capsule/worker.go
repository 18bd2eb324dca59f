package capsule

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/captrace"
)

// Persistent per-context workers with a spin-then-park handoff. Each of
// the Contexts tokens owns one long-lived goroutine; a granted division
// hands work to it instead of spawning a fresh `go func()`. This is the
// software analogue of the paper's hardware contexts being *resident*:
// dividing hands work to an existing context, it does not construct one.
//
// The handoff has two gears. A worker that just finished a job first
// *spins* (bounded, yielding) on a padded per-context slot; a division
// granted while it spins is one plain store plus one CAS — no channel,
// no scheduler wakeup, which is what made the PR-3 channel-only handoff
// a regression against goroutine-per-spawn on the granted-divide path.
// Only when the spin budget runs out does the worker CAS itself to
// parked and block on its mailbox channel; a spawner that observes the
// parked state falls back to the channel send. The CAS arbitration makes
// the race between "worker gives up spinning" and "spawner hands off"
// lose-free: exactly one of the two transitions wins, and the loser takes
// the other path.
//
// The single-slot protocol is safe for the same reason the old mailbox
// was: a token is only grantable while it sits in the free pool, the
// worker returns it only after finishing its previous job (and after
// resetting its handoff state), and the pool hands each token to at most
// one holder — so at most one spawner ever touches a worker's slot at a
// time, and the slot/mailbox is empty whenever it does.

// Handoff states. The zero value is wsSpin: a freshly created worker is
// immediately handoff-able even before its goroutine first runs.
const (
	wsSpin   uint32 = iota // worker polls its slot; slot handoff allowed
	wsHanded               // slot holds a job for the worker
	wsParked               // worker blocks (or is about to) on its mailbox
)

// handoffSpins bounds the post-job spin: how many yields a worker waits
// for the next division before parking. High enough that a worker in a
// divide-heavy steady state never parks, low enough that an idle runtime
// quiesces to parked goroutines almost immediately.
const handoffSpins = 128

// workerHot is the live part of one handoff slot. slot is plain memory
// published by the state word: a spawner writes slot and then CASes
// wsSpin → wsHanded (release); the worker reads slot only after loading
// wsHanded (acquire).
type workerHot struct {
	state atomic.Uint32
	slot  job
}

// cacheLine is the assumed coherence-line size. Padding targets two
// lines so the adjacent-line prefetcher can't re-couple neighbours.
const cacheLine = 64

// workerState pads workerHot to whole cache lines (derived from its real
// size, so the layout contract holds on any word size), keeping
// neighbouring workers' handoffs off each other's cache lines.
type workerState struct {
	workerHot
	_ [(2*cacheLine - unsafe.Sizeof(workerHot{})%(2*cacheLine)) % (2 * cacheLine)]byte
}

// job is one unit handed to a parked worker, with the group that
// spawned it (nil for TryDivide's). A nil fn is the quit
// sentinel Close uses to retire the worker.
type job struct {
	fn func()
	g  *Group
}

// sendJob hands j to context id's worker: slot handoff if the worker is
// (or will be, on first schedule) spinning, channel send if it parked.
// Non-blocking by construction either way — the caller holds the token,
// so the slot is resettable only by us and the mailbox is empty.
//
// The handoff outcome (spin-hit vs park-wakeup) is the event the PR-5
// bench argued about, so it is traced per request. tid must be read
// before the handoff: the instant the job is visible the worker may run
// it, release the token, and a new spawner may overwrite ctxTrace[id].
// Quit sentinels (nil fn, sent by doClose) never read the — stale —
// entry and are never traced.
func (rt *Runtime) sendJob(id int, j job) {
	var tid uint64
	if j.fn != nil {
		tid = rt.ctxTrace[id]
	}
	w := &rt.wstate[id]
	if w.state.Load() == wsSpin {
		w.slot = j
		if w.state.CompareAndSwap(wsSpin, wsHanded) {
			if tid != 0 {
				rt.tracer.Record(captrace.KHandoff, tid, 0, captrace.HandoffSpin, uint32(id))
			}
			return
		}
		// The worker won the race and parked; the slot write is dead (a
		// parked worker never reads it). Drop the closure reference and
		// take the slow path.
		w.slot = job{}
	}
	rt.workers[id] <- j
	if tid != 0 {
		rt.tracer.Record(captrace.KHandoff, tid, 0, captrace.HandoffPark, uint32(id))
	}
}

// waitForJob is the worker side of the handoff: spin on the slot for a
// bounded number of yields, then park on the mailbox. The CAS to wsParked
// arbitrates against a concurrent sendJob — if the spawner already
// flipped the slot to wsHanded, the job is taken from there instead.
func (rt *Runtime) waitForJob(id int) job {
	w := &rt.wstate[id]
	for i := 0; i < handoffSpins; i++ {
		if w.state.Load() == wsHanded {
			return w.takeSlot()
		}
		yieldBackoff(i)
	}
	if !w.state.CompareAndSwap(wsSpin, wsParked) {
		return w.takeSlot() // a spawner handed off between poll and CAS
	}
	return <-rt.workers[id]
}

// takeSlot consumes the handed job. The worker owns the slot exclusively
// from observing wsHanded until it resets the state after the job runs.
func (w *workerState) takeSlot() job {
	j := w.slot
	w.slot = job{} // drop the closure reference for the GC
	return j
}

// yieldBackoff is the shared contended-wait step, used by the worker
// spin phase and doClose's drain loop: mostly Gosched (nearly free when
// the goroutine being waited for is ready to run), with a periodic sleep
// so a long spin on a loaded box cannot monopolise its P.
func yieldBackoff(i int) {
	if (i+1)%256 == 0 {
		time.Sleep(50 * time.Microsecond)
	} else {
		runtime.Gosched()
	}
}

// workerLoop is the body of one persistent worker: wait (spin, then
// park), run, repeat, until the quit sentinel arrives.
func (rt *Runtime) workerLoop(id int) {
	defer rt.workerWG.Done()
	for {
		j := rt.waitForJob(id)
		if j.fn == nil {
			return
		}
		rt.runJob(id, j)
	}
}

// runJob executes one job with the kthr bookkeeping deferred, so a
// panicking fn still releases its token and fires its joins before the
// panic tears the process down (the same observable order the
// goroutine-per-spawn runtime had). The handoff state is reset to
// spinning BEFORE the token release: once the token is visible in the
// pool a new spawner may pop it, and it must find the slot open. The
// group's live count drops before its join does, so an owner whose Join
// has returned finds no live worker and elides its locks again.
func (rt *Runtime) runJob(id int, j job) {
	defer func() {
		rt.wstate[id].state.Store(wsSpin)
		rt.release(id)
		if j.g != nil {
			j.g.live.Add(-1)
			j.g.wg.Done()
		}
	}()
	j.fn()
}

// Close shuts the runtime down: it stops granting divisions, waits for
// in-flight workers to die and for outstanding tokens (Probe'd but not
// yet consumed) to come home, then retires the persistent workers. Close
// is idempotent and safe to race with Probe/Divide — offers that lose the
// race are refused and run inline, exactly like any other denied probe. A
// caller that holds a token across Close without ever Spawn-ing or
// Release-ing it will block Close forever; that is the same misuse as
// leaking a token, just louder.
//
// After Close: Probe always refuses, CanDivide is false, FreeContexts is
// 0, and Join returns immediately.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() { rt.doClose() })
	<-rt.closedCh
}

// doClose runs once. Collecting every token out of the free pool is both
// the drain barrier and the permanent off switch: a token Close holds can
// never be granted again, and a token still out with a worker or holder
// lands back on the stack on release, where the collection loop picks it
// up.
func (rt *Runtime) doClose() {
	rt.closed.Store(true)
	for held, spins := 0, 0; held < rt.cfg.Contexts; {
		if _, ok := rt.pool.pop(); ok {
			held++
			continue
		}
		yieldBackoff(spins)
		spins++
	}
	rt.wg.Wait() // releases precede wg.Done; let the last Done land
	for i := range rt.workers {
		// Quit sentinel, through the normal handoff: a still-spinning
		// worker takes it from the slot without ever parking.
		rt.sendJob(i, job{})
	}
	rt.workerWG.Wait()
	close(rt.closedCh)
}
