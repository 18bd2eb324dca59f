package capcluster

import (
	"fmt"
	"sync/atomic"
)

// A Placement picks the backend a request's first remote probe targets.
// The router walks the fleet in ring order from that index until a probe
// grants, so placement chooses preference, not exclusivity — a sick or
// credit-dry favourite costs one refused (local, memory-only) probe, not
// a failed request. Pick must be safe for concurrent use and should not
// allocate: it sits on the request hot path.
type Placement interface {
	// Name is the policy's flag/metrics name.
	Name() string
	// Pick returns the preferred index into backends for key. backends is
	// never empty.
	Pick(key uint64, backends []*Backend) int
}

// NewPlacement resolves a policy by name: "least-loaded" (default),
// "round-robin", or "rendezvous".
func NewPlacement(name string) (Placement, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded{}, nil
	case "round-robin":
		return &RoundRobin{}, nil
	case "rendezvous":
		return Rendezvous{}, nil
	}
	return nil, fmt.Errorf("capcluster: unknown placement %q (have least-loaded, round-robin, rendezvous)", name)
}

// LeastLoaded prefers the backend with the most free credits — the
// cluster analogue of granting the context at the top of the free stack:
// send work where headroom is, as the gauges see it right now.
type LeastLoaded struct{}

// Name implements Placement.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick scans the fleet once for the widest credits-minus-inflight gap.
// Ties go to the lowest index; a fleet with no headroom anywhere returns
// 0 and lets the probes refuse.
func (LeastLoaded) Pick(_ uint64, backends []*Backend) int {
	best, bestFree := 0, int(-1)<<31
	for i, b := range backends {
		g := b.gauge.Load()
		free := int(uint32(g>>32)) - int(uint32(g))
		if free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// RoundRobin rotates through the fleet regardless of load — the control
// policy the other two are measured against, and the right one when
// backends are identical and traffic is uniform.
type RoundRobin struct{ next atomic.Uint64 }

// Name implements Placement.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Placement.
func (p *RoundRobin) Pick(_ uint64, backends []*Backend) int {
	return int((p.next.Add(1) - 1) % uint64(len(backends)))
}

// Rendezvous is highest-random-weight hashing on the request key (the
// workload and its parameters, so a given (workload, n, seed) always
// lands on the same backend while the fleet is stable — cache and
// working-set affinity). Weights key on each backend's URL hash, not its
// fleet index, so removing a backend moves only that backend's keys; the
// rest keep their homes across config changes and restarts.
type Rendezvous struct{}

// Name implements Placement.
func (Rendezvous) Name() string { return "rendezvous" }

// Pick implements Placement.
func (Rendezvous) Pick(key uint64, backends []*Backend) int {
	best, bestW := 0, uint64(0)
	for i, b := range backends {
		w := mix(key ^ b.nameHash)
		if i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// mix is the splitmix64 finaliser (the same one the capsule lock table
// uses) so adjacent keys and backend ids spread uniformly.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// placeKey hashes a request's routing identity (workload + raw query,
// which carries n and seed) with FNV-1a, allocation-free.
func placeKey(workload, rawQuery string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(workload); i++ {
		h ^= uint64(workload[i])
		h *= fnvPrime64
	}
	h ^= '?'
	h *= fnvPrime64
	for i := 0; i < len(rawQuery); i++ {
		h ^= uint64(rawQuery[i])
		h *= fnvPrime64
	}
	return h
}

const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = 1099511628211
)

// fnv64 is FNV-1a over one string — the stable backend identity hash.
func fnv64(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
