package capsule

import (
	"sync"
	"unsafe"

	"repro/internal/captrace"
)

// A Domain is a division-capable execution scope: the method set component
// programs are written against. Three implementations exist, all backed by
// the same Runtime (one context pool, one throttle, one lock table):
//
//   - *Runtime itself — the whole-process scope whose Join waits for every
//     worker, the right domain for one-program-at-a-time tools (caprun);
//   - *Group — a per-task join scope for servers running many component
//     programs concurrently on one runtime: divisions compete for the
//     shared pool, but Join waits only for the group's own workers;
//   - Sequential — the fully-degraded scope whose divisions always run
//     inline, for callers that decided (e.g. at request admission) not to
//     offer parallelism at all.
type Domain interface {
	// Divide offers fn at a division point: spawn on a fresh worker
	// (true) or run inline to completion (false).
	Divide(fn func()) bool
	// TryDivide offers fn and does nothing on refusal (the caller's
	// else-branch interleaves its own unit of work).
	TryDivide(fn func()) bool
	// Join blocks until every worker spawned through this domain has died.
	Join()
	// Lock/Unlock are the shared striped lock table (mlock/munlock).
	Lock(key uint64)
	Unlock(key uint64)
}

var (
	_ Domain = (*Runtime)(nil)
	_ Domain = (*Group)(nil)
	_ Domain = seqDomain{}
)

// GroupStats are a Group's own division counters — the per-task slice of
// the runtime-wide Stats, cheap enough to keep on every request. Like
// Stats.Probes, Probes is derived: Granted + NoCtxDenies + ThrottleDenies.
type GroupStats struct {
	Probes         uint64 `json:"probes"`      // division offers made through the group
	Granted        uint64 `json:"granted"`     // offers that spawned a worker
	InlineRuns     uint64 `json:"inline_runs"` // Divide offers run inline after refusal
	NoCtxDenies    uint64 `json:"-"`           // offers refused because the pool was empty
	ThrottleDenies uint64 `json:"-"`           // offers refused by the death-rate throttle
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
// runtime without their joins entangling. The zero restriction carried
// over from Runtime.Join applies per group: only the task that owns the
// group may Join it, and not concurrently with its own new top-level
// divisions.
//
// A group counts its offers on its own cache lines — a refused offer
// writes nothing any other request reads — and Join folds what it has
// counted since the last Join into the runtime's Stats.
type Group struct {
	groupHot
	_ [(cacheLine - unsafe.Sizeof(groupHot{})%cacheLine) % cacheLine]byte
}

// groupHot is the live part of a Group, padded by Group to whole cache
// lines: the allocator then places no other request's group on them.
type groupHot struct {
	rt  *Runtime
	tid uint64 // trace ID tagging this group's runtime events (0 = untraced)
	wg  sync.WaitGroup

	own    outcomes // every offer made through the group
	folded outcomes // how much of own Join has added to rt.stats
}

// NewGroup returns a fresh join scope on rt.
func (rt *Runtime) NewGroup() *Group { return rt.NewGroupTraced(0) }

// NewGroupTraced returns a join scope whose division offers, handoffs,
// worker deaths and inline fallbacks are recorded against tid — the
// serving tier's bridge from a request's X-Capsule-Trace-ID to the
// runtime events its Domain causes. tid 0 is exactly NewGroup.
func (rt *Runtime) NewGroupTraced(tid uint64) *Group {
	return &Group{groupHot: groupHot{rt: rt, tid: tid}}
}

// Runtime returns the runtime this group divides on.
func (g *Group) Runtime() *Runtime { return g.rt }

// TryDivide probes the shared runtime and, on success, spawns fn as a
// worker counted in this group. On refusal it does nothing and returns
// false.
func (g *Group) TryDivide(fn func()) bool {
	c, deny := g.rt.offer(g.tid)
	g.own.count(c, deny)
	if c == nil {
		return false
	}
	g.rt.spawnOn(c, fn, &g.wg, g.tid)
	return true
}

// Divide probes and either spawns fn on a group worker (true) or runs it
// inline on the caller (false).
func (g *Group) Divide(fn func()) bool {
	if g.TryDivide(fn) {
		return true
	}
	g.own.inlineRuns.Add(1)
	if g.tid != 0 {
		g.rt.tracer.Record(captrace.KDivideInline, g.tid, 0, 0, 0)
	}
	fn()
	return false
}

// Join blocks until every worker spawned through this group has died,
// then publishes the group's offers to the runtime's Stats. Workers of
// other groups (or of the runtime directly) are not waited on.
func (g *Group) Join() {
	g.wg.Wait()
	g.own.foldInto(&g.rt.stats.outcomes, &g.folded)
}

// Lock acquires the shared lock-table entry for key.
func (g *Group) Lock(key uint64) { g.rt.Lock(key) }

// Unlock releases the shared lock-table entry for key.
func (g *Group) Unlock(key uint64) { g.rt.Unlock(key) }

// Stats snapshots the group's own division counters.
func (g *Group) Stats() GroupStats {
	s := GroupStats{
		Granted:        g.own.granted.Load(),
		InlineRuns:     g.own.inlineRuns.Load(),
		NoCtxDenies:    g.own.noCtxDenies.Load(),
		ThrottleDenies: g.own.throttleDenies.Load(),
	}
	s.Probes = s.Granted + s.NoCtxDenies + s.ThrottleDenies
	return s
}

// Sequential returns the fully-degraded Domain on rt: every Divide runs
// its work inline, every TryDivide is refused, and Join is a no-op (there
// are never any workers). It touches no division counters — a sequential
// task makes no offers, so it must not dilute the grant rate — but still
// uses the shared lock table, so sequential and parallel tasks stay
// mutually correct. This is the request-admission analogue of the CapC
// compiler's sequential fallback path.
func (rt *Runtime) Sequential() Domain { return seqDomain{rt} }

type seqDomain struct{ rt *Runtime }

func (d seqDomain) Divide(fn func()) bool    { fn(); return false }
func (d seqDomain) TryDivide(fn func()) bool { return false }
func (d seqDomain) Join()                    {}
func (d seqDomain) Lock(key uint64)          { d.rt.Lock(key) }
func (d seqDomain) Unlock(key uint64)        { d.rt.Unlock(key) }
