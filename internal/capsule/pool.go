package capsule

import "sync/atomic"

// This file holds the two lock-free structures behind the probe/divide hot
// path. Both are the software analogue of the paper's point that nthr is
// answerable "in a few cycles": a probe is a handful of atomic loads and
// one CAS, never a mutex, never an allocation.
//
//   - tokenStack: a Treiber stack over the fixed context-id set. LIFO
//     order keeps the working set on warm stacks (the most recently freed
//     context is granted first), and an ABA tag in the head word makes the
//     CAS safe against the classic pop/push/pop reuse race.
//   - deathRing: a fixed-size ring of death timestamps. "deaths in window
//     >= threshold" collapses to one timestamp: the threshold-th most
//     recent death is still inside the window iff at least threshold
//     deaths happened inside it. The death path reads it; probes read
//     only the deadline the death path derives from it.

// tokenStack is a lock-free LIFO over the ids [0, n). The head word packs
// {tag:32 | id+1:32}; a zero low half means empty, so a refusal is one
// load of one word. next[id] holds the id+1 of the element below id on
// the stack (0 = bottom). Each id is on the stack at most once — pushes
// only return ids handed out by pop — so next[id] is only ever written by
// the id's current owner; the stale read a concurrent pop can make of it
// is rejected by the tag CAS.
type tokenStack struct {
	head atomic.Uint64
	next []atomic.Int32
	n    atomic.Int64 // free count, a peek-only observable (see free)
}

const (
	stackIDMask  = uint64(0xFFFFFFFF)
	stackTagIncr = uint64(1) << 32
)

// init fills the stack with all n ids, id 0 on top: the first probe takes
// the "lowest" context, like the hardware allocator.
func (s *tokenStack) init(n int) {
	s.next = make([]atomic.Int32, n)
	for i := 0; i < n-1; i++ {
		s.next[i].Store(int32(i + 2)) // below id i sits id i+1
	}
	s.head.Store(1) // tag 0, top id 0 (n >= 1 is guaranteed by New's defaulting)
	s.n.Store(int64(n))
}

// pop removes and returns the top id, or ok=false when the stack is empty.
func (s *tokenStack) pop() (int, bool) {
	for {
		h := s.head.Load()
		top := uint32(h & stackIDMask)
		if top == 0 {
			return 0, false
		}
		below := uint32(s.next[top-1].Load())
		nh := ((h &^ stackIDMask) + stackTagIncr) | uint64(below)
		if s.head.CompareAndSwap(h, nh) {
			s.n.Add(-1)
			return int(top - 1), true
		}
	}
}

// push returns id to the stack, making it the next pop's result.
func (s *tokenStack) push(id int) {
	s.n.Add(1)
	for {
		h := s.head.Load()
		s.next[id].Store(int32(uint32(h & stackIDMask)))
		nh := ((h &^ stackIDMask) + stackTagIncr) | uint64(id+1)
		if s.head.CompareAndSwap(h, nh) {
			return
		}
	}
}

// empty reports whether the stack held no id at the instant of the load:
// the whole of a refused probe's work against the pool.
func (s *tokenStack) empty() bool { return s.head.Load()&stackIDMask == 0 }

// free returns the current free count: a peek, not a reservation —
// exactly the contract FreeContexts documents. push counts its id before
// the CAS publishes it and pop uncounts after the CAS took one, so the
// count runs ahead of the stack by at most the tokens in flight and
// always stays inside [0, n].
func (s *tokenStack) free() int { return int(s.n.Load()) }

// deathRing records worker-death timestamps for the division throttle.
// Slot i&mask holds the timestamp of death number i (0-based); seq is the
// count of deaths recorded so far. The ring holds at least k entries (k
// is the throttle's death threshold), so the timestamp of the k-th most
// recent death is always still present: it is overwritten only by death
// seq-k+size >= seq, which has not happened yet.
//
// Only the death path touches the ring. A probe never does: the death
// that completes a burst of k turns "the k-th most recent death, plus
// the window" into a deadline and publishes it in Runtime.throttleUntil,
// and that one word is all the probe path reads.
//
// One benign race exists, bounded to the instruction window of one
// record call. record reserves its slot (seq.Add) before storing the
// timestamp, so when k-1 later deaths overtake it inside that window the
// last of them reads the slot's previous (older, possibly zero)
// timestamp, computes an earlier deadline and may let a few probes
// through as the burst lands — a transient under-throttle. The throttle
// is a rate heuristic, not a mutual-exclusion device, so this does not
// affect correctness; precise counting is exactly the serialization the
// lock-free design avoids.
type deathRing struct {
	seq  atomic.Uint64
	k    uint64
	mask uint64
	ts   []atomic.Int64
}

// init sizes the ring to the next power of two >= threshold (threshold >=
// 1 is guaranteed by New's defaulting).
func (r *deathRing) init(threshold int) {
	size := 1
	for size < threshold {
		size <<= 1
	}
	r.ts = make([]atomic.Int64, size)
	r.k = uint64(threshold)
	r.mask = uint64(size - 1)
}

// record logs one death at timestamp now and returns the timestamp of
// the k-th most recent death, this one included; ok is false while fewer
// than k deaths exist at all.
func (r *deathRing) record(now int64) (kth int64, ok bool) {
	seq := r.seq.Add(1)
	r.ts[(seq-1)&r.mask].Store(now)
	if seq < r.k {
		return 0, false
	}
	return r.ts[(seq-r.k)&r.mask].Load(), true
}
