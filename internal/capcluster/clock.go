package capcluster

import (
	"math"
	"sync/atomic"
	"time"
)

// clock is the router's one timebase. Every backend's breaker window and
// half-open trial backoff, the stale TTL, the feed watchdog and
// reconnect backoff, and the per-attempt dispatch deadline read it; each
// Backend shares its Router's. A reading is nanoseconds since New on the
// monotonic clock, as capsule's is, so a wall-clock step — NTP, a VM
// resume — moves none of those timers. Latency measurement (histograms,
// span durations) stays on real time.
//
// speed is clock nanoseconds per real nanosecond: 1 in production.
// In-package tests run socket storms faster, so the production windows
// pass in a fraction of the real time, and unit tests stop the clock
// (speed 0) and move it by hand through base.
type clock struct {
	epoch time.Time
	speed int64
	base  atomic.Int64
}

func newClock() *clock { return &clock{epoch: time.Now(), speed: 1} }

// now is the current reading. On a Time that carries a monotonic reading,
// Since is one monotonic clock read; Now would read the wall clock too.
func (c *clock) now() int64 { return c.base.Load() + int64(time.Since(c.epoch))*c.speed }

// real converts a span of clock time into the real time a timer waits
// for it. On a stopped clock no timer fires.
func (c *clock) real(d time.Duration) time.Duration {
	if c.speed == 0 {
		return math.MaxInt64
	}
	return d / time.Duration(c.speed)
}
