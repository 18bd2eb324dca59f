package capsule

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A Domain is a division-capable execution scope: the method set component
// programs are written against. It has the paper's two-instruction shape:
// Probe is nthr's test — it reserves a context or refuses — and only a
// granted probe goes on to Spawn, so a division site builds its work only
// on the granted branch:
//
//	if c, ok := dom.Probe(); ok {
//		dom.Spawn(c, func() { work(lo, mid) })
//	} else {
//		work(lo, mid) // the caller's own path; nothing was allocated
//	}
//
// Two implementations exist, both backed by a Runtime (one context pool,
// one throttle, one lock table), which is no Domain itself: like the
// paper's join(), a Join belongs to a component, not to the machine.
//
//   - *Group — a per-task join scope: divisions compete for the shared
//     pool, but Join waits only for the group's own workers, so one
//     program (caprun) or many concurrent ones (a server) each run on
//     their own group;
//   - Sequential — the fully-degraded scope whose probes are always
//     refused, for callers that decided (e.g. at request admission) not to
//     offer parallelism at all.
type Domain interface {
	// Probe reserves a context token (true) or refuses (false). A granted
	// context MUST be consumed by Spawn on the same domain.
	Probe() (*Context, bool)
	// Spawn hands fn to the worker of a context this domain's Probe
	// granted.
	Spawn(c *Context, fn func())
	// Join blocks until every worker spawned through this domain has died.
	Join()
	// Lock/Unlock are mlock/munlock on key. A Domain's locks exclude
	// among that scope's own tasks — its owner and the workers spawned
	// through it — and guard state private to the scope: a Group with
	// no live worker takes no table entry (see Group).
	Lock(key uint64)
	Unlock(key uint64)
}

var (
	_ Domain = (*Group)(nil)
	_ Domain = seqDomain{}
)

// GroupStats are a Group's own division counters — the per-task slice of
// the runtime-wide Stats, cheap enough to keep on every request. Like
// Stats.Probes, Probes is derived: Granted + NoCtxDenies + ThrottleDenies.
type GroupStats struct {
	Probes         uint64 `json:"probes"`  // division offers made through the group
	Granted        uint64 `json:"granted"` // offers that spawned a worker
	NoCtxDenies    uint64 `json:"-"`       // offers refused because the pool was empty
	ThrottleDenies uint64 `json:"-"`       // offers refused by the death-rate throttle
}

// GrantRate is the fraction of the group's division offers that moved work
// to a fresh worker — the per-task "% divisions allowed".
func (s GroupStats) GrantRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Granted) / float64(s.Probes)
}

// A Group is a join scope on a shared Runtime. Its divisions draw from the
// runtime's context pool and are throttled and counted exactly like the
// runtime's own, but Join waits only for workers spawned through this
// group — so any number of component programs can run concurrently on one
// runtime without their joins entangling.
//
// The owner rule is load-bearing: a group is used only by the task that
// owns it and by the workers spawned through it. Only the owner may Join
// it, and not concurrently with its own new top-level divisions. Only
// the owner and those workers may Lock through it, and only to guard
// state private to the group. The group keeps a count of its live
// workers, and while that count is 0 the owner is the one goroutine that
// can be inside: its Lock records the key in a small owner-only set and
// takes no table entry. The first Spawn that finds such keys held takes
// each on the table for real before the hand-off, so the child still
// excludes; from then until the workers have died every Lock is the
// table's.
//
// A group counts its offers and elided locks on its own cache lines — a
// refused offer writes nothing any other request reads — and Join folds
// what it has counted since the last Join into the runtime's Stats.
type Group struct {
	_ [(cacheLine - unsafe.Sizeof(groupHot{})%cacheLine) % cacheLine]byte
	groupHot
}

// groupHot is the live part of a Group, padded by Group to whole cache
// lines: the allocator then places no other request's group on them. The
// pad goes first because a zero-length last field would add a word.
type groupHot struct {
	rt   *Runtime
	tid  uint64 // trace ID tagging this group's runtime events (0 = untraced)
	wg   sync.WaitGroup
	live atomic.Int64 // spawned workers whose fn has not returned

	own    outcomes // every offer made through the group
	folded outcomes // how much of own Join has added to rt.stats

	// held is the owner's lock set: the keys it locked while no worker
	// was live, none of which took a table entry. Only the owner touches
	// it, and Spawn's upgrade empties it before the first worker exists.
	held  [maxHeld]uint64
	nheld int

	elided       uint64 // Locks that took no table entry, owner-only
	elidedFolded uint64 // how much of elided Join has added to rt.stats
}

// maxHeld bounds the owner's lock set; a Lock past it takes the table.
const maxHeld = 4

// NewGroup returns a fresh join scope on rt.
func (rt *Runtime) NewGroup() *Group { return rt.NewGroupTraced(0) }

// NewGroupTraced returns a join scope whose division offers, handoffs
// and worker deaths are recorded against tid — the
// serving tier's bridge from a request's X-Capsule-Trace-ID to the
// runtime events its Domain causes. tid 0 is exactly NewGroup.
func (rt *Runtime) NewGroupTraced(tid uint64) *Group {
	return &Group{groupHot: groupHot{rt: rt, tid: tid}}
}

// Runtime returns the runtime this group divides on.
func (g *Group) Runtime() *Runtime { return g.rt }

// Probe offers a division to the shared runtime and counts the outcome on
// the group's own line. A refusal allocates nothing and writes nothing any
// other request reads.
func (g *Group) Probe() (*Context, bool) {
	c, deny := g.rt.offer(g.tid)
	g.own.count(c, deny)
	return c, c != nil
}

// Spawn hands fn to the worker of a context g.Probe granted; the worker
// is counted in this group, so Join waits for it. The spawn that makes
// the first worker live first takes every elided key on the table.
func (g *Group) Spawn(c *Context, fn func()) {
	if g.live.Add(1) == 1 && g.nheld != 0 {
		g.upgrade()
	}
	g.rt.spawnOn(c, fn, g)
}

// upgrade takes the owner's held keys on the table, so the worker about
// to be handed off excludes against them, and empties the set: from here
// on each of them is unlocked through the table. Held keys that share an
// entry take it once; each further one is an extra hold on the entry,
// which its Unlock gives back. The acquires were counted when elided and
// are not again. Only the owner runs it, before the first worker exists.
func (g *Group) upgrade() {
	for i, key := range g.held[:g.nheld] {
		s := g.rt.stripeFor(key)
		if slices.ContainsFunc(g.held[:i], func(k uint64) bool { return g.rt.stripeFor(k) == s }) {
			s.extra++ // held already, through an earlier key
		} else {
			s.mu.Lock()
		}
	}
	g.nheld = 0
}

// Join blocks until every worker spawned through this group has died,
// then publishes the group's offers and elided locks to the runtime's
// Stats. Workers of other groups (or of the runtime directly) are not
// waited on.
func (g *Group) Join() {
	g.wg.Wait()
	g.own.foldInto(&g.rt.stats.outcomes, &g.folded)
	if n := g.elided - g.elidedFolded; n != 0 {
		g.rt.stats.elided.Add(n)
		g.elidedFolded = g.elided
	}
}

// Lock is mlock on key in the group's scope. With no live worker only the
// owner can be inside, so the key goes in the owner's set and no table
// entry is taken; otherwise, or past maxHeld keys, Lock takes the
// runtime's table entry.
func (g *Group) Lock(key uint64) {
	if g.live.Load() == 0 && g.nheld < len(g.held) {
		g.held[g.nheld] = key
		g.nheld++
		g.elided++
		return
	}
	g.rt.lock(key)
}

// Unlock is munlock on key: it drops key from the owner's set if it is
// there, and releases key's table entry otherwise. While a worker is live
// the set is empty, so only the owner ever reads it.
func (g *Group) Unlock(key uint64) {
	if g.live.Load() == 0 {
		for i := g.nheld - 1; i >= 0; i-- {
			if g.held[i] == key {
				g.nheld--
				g.held[i] = g.held[g.nheld]
				return
			}
		}
	}
	g.rt.unlock(key)
}

// Stats snapshots the group's own division counters.
func (g *Group) Stats() GroupStats {
	s := GroupStats{
		Granted:        g.own.granted.Load(),
		NoCtxDenies:    g.own.noCtxDenies.Load(),
		ThrottleDenies: g.own.throttleDenies.Load(),
	}
	s.Probes = s.Granted + s.NoCtxDenies + s.ThrottleDenies
	return s
}

// Sequential returns the fully-degraded Domain on rt: every Probe is
// refused, so the caller always takes its own path, and Join is a no-op
// (there are never any workers). It touches no division counters — a
// sequential task makes no offers, so it must not dilute the grant rate —
// and its locks are the runtime's table, counted like a Group's.
// This is the request-admission analogue of the
// CapC compiler's sequential fallback path, and what
// speedup_vs_sequential divides by: the algorithm and nothing else.
func (rt *Runtime) Sequential() Domain { return seqDomain{rt} }

type seqDomain struct{ rt *Runtime }

func (d seqDomain) Probe() (*Context, bool) { return nil, false }
func (d seqDomain) Spawn(*Context, func())  { panic("capsule: Spawn on the Sequential domain") }
func (d seqDomain) Join()                   {}
func (d seqDomain) Lock(key uint64)         { d.rt.lock(key) }
func (d seqDomain) Unlock(key uint64)       { d.rt.unlock(key) }
