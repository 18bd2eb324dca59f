package capcluster

import "sync/atomic"

// failRing is the cluster-scope analogue of internal/capsule's death
// ring: a fixed atomic ring of backend-failure timestamps. A backend
// error or timeout is the cluster's kthr — a remote worker died — and
// "at least threshold failures inside the trailing window" is the
// circuit-breaker condition, answered with one or two atomic loads and a
// lazy clock read, exactly like the runtime's division throttle.
//
// The same two benign races the capsule ring documents apply here, with
// the same conclusions: an overwrite racing a read can only substitute a
// newer timestamp (errs toward breaking — the conservative direction for
// a health check), and a reader catching seq published before the store
// lands sees the slot's older value and may let one probe through as a
// failure lands. The breaker is a rate heuristic, not mutual exclusion;
// a single leaked probe costs one retried dispatch, never correctness.
//
// Re-admission is implicit: when the window slides past the old
// failures, atLeast goes false and probes flow again. The first probe
// after the drain is the half-open trial — if the backend is still dead
// it fails fast, refills the ring, and the breaker re-trips.
type failRing struct {
	seq atomic.Uint64
	ts  [failRingSize]atomic.Int64
}

// failRingSize is the next power of two >= failThreshold, so the
// timestamp of the failThreshold-th most recent failure is always
// resident.
const failRingSize = 4

// record logs one backend failure at clock reading now.
func (r *failRing) record(now int64) {
	i := r.seq.Add(1) - 1
	r.ts[i%failRingSize].Store(now)
}

// atLeast reports whether at least k (<= failRingSize) failures have
// timestamps inside the trailing failWindow of c. The clock is read only
// once k failures exist at all, so a healthy backend's probe never pays
// for it.
func (r *failRing) atLeast(k int, c *clock) bool {
	seq := r.seq.Load()
	if seq < uint64(k) {
		return false
	}
	ts := r.ts[(seq-uint64(k))%failRingSize].Load()
	return ts >= c.now()-int64(failWindow)
}
