// Package mem implements the simulated memory system: a sparse
// byte-addressed main memory holding architectural state, and a
// latency-only cache hierarchy (L1I, L1D, unified L2, main memory) matching
// the paper's Table 1 configuration.
//
// Data always lives in Memory; the caches model timing only (tag arrays with
// LRU replacement). This mirrors how SimpleScalar's sim-outorder keeps
// functional state separate from its cache timing model.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/prog"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift

	// The directory covers internal/prog's fixed layout, from address 0 to
	// the main stack's top, in leaves of 1<<leafShift pages (4 MiB each).
	leafShift     = 10
	leafPages     = 1 << leafShift
	leafAddrShift = pageShift + leafShift
	dirLimit      = prog.MainStackTop
	dirLeaves     = (dirLimit + 1<<leafAddrShift - 1) >> leafAddrShift
)

type page = [pageSize]byte

// Memory is a sparse, byte-addressable, little-endian memory.
// It is not safe for concurrent use; the simulator is single-goroutine.
//
// Every address a linked program loads or stores (data, heap and stacks,
// all below prog.MainStackTop) finds its page through a two-level directory
// by shifting and indexing, without hashing; only an address at or above
// the main stack's top goes through a map. Leaves and pages are made on
// first store, so an untouched region costs nothing but its nil slot.
type Memory struct {
	dir      [dirLeaves]*[leafPages]*page
	resident int              // pages made in dir
	pages    map[uint64]*page // pages at or above dirLimit, by page number
}

// NewMemory returns an empty memory. All addresses read as zero.
func NewMemory() *Memory {
	return &Memory{}
}

// page returns addr's page, or nil when nothing was ever stored in it.
func (m *Memory) page(addr uint64) *page {
	if addr < dirLimit {
		if leaf := m.dir[addr>>leafAddrShift]; leaf != nil {
			return leaf[addr>>pageShift&(leafPages-1)]
		}
		return nil
	}
	return m.pages[addr>>pageShift]
}

// pageFor returns addr's page, making it (and its leaf) on first use.
func (m *Memory) pageFor(addr uint64) *page {
	if addr < dirLimit {
		leaf := m.dir[addr>>leafAddrShift]
		if leaf == nil {
			leaf = new([leafPages]*page)
			m.dir[addr>>leafAddrShift] = leaf
		}
		p := &leaf[addr>>pageShift&(leafPages-1)]
		if *p == nil {
			*p = new(page)
			m.resident++
		}
		return *p
	}
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = new(page)
		m.pages[pn] = p
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.pageFor(addr)[addr&(pageSize-1)] = b
}

// ReadWord returns the 64-bit little-endian word at addr. Unaligned access
// is permitted (it spans pages transparently) but generated code always
// aligns words.
func (m *Memory) ReadWord(addr uint64) int64 {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		p := m.page(addr)
		if p == nil {
			return 0
		}
		return int64(binary.LittleEndian.Uint64(p[off : off+8]))
	}
	var buf [8]byte
	for i := range buf {
		buf[i] = m.LoadByte(addr + uint64(i))
	}
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// WriteWord stores a 64-bit little-endian word at addr.
func (m *Memory) WriteWord(addr uint64, v int64) {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		p := m.pageFor(addr)
		binary.LittleEndian.PutUint64(p[off:off+8], uint64(v))
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	for i := range buf {
		m.StoreByte(addr+uint64(i), buf[i])
	}
}

// ReadFloat returns the float64 stored at addr.
func (m *Memory) ReadFloat(addr uint64) float64 {
	return math.Float64frombits(uint64(m.ReadWord(addr)))
}

// WriteFloat stores a float64 at addr.
func (m *Memory) WriteFloat(addr uint64, v float64) {
	m.WriteWord(addr, int64(math.Float64bits(v)))
}

// StoreBytes copies b into memory starting at addr.
func (m *Memory) StoreBytes(addr uint64, b []byte) {
	for i, c := range b {
		m.StoreByte(addr+uint64(i), c)
	}
}

// LoadBytes copies n bytes starting at addr.
func (m *Memory) LoadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.LoadByte(addr + uint64(i))
	}
	return out
}

// Footprint returns the number of resident pages (for tests and stats).
func (m *Memory) Footprint() int { return m.resident + len(m.pages) }

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
	HitCycles int
}

// Validate checks structural sanity. A zero HitCycles is valid: the hit
// completes in the cycle it issues.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.HitCycles < 0 {
		return fmt.Errorf("cache %s: negative hit latency %d", c.Name, c.HitCycles)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// CacheStats aggregates accesses to one cache.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type cacheLine struct {
	tag   uint64
	valid bool
	lru   uint64 // last-touch tick
}

// Cache is a set-associative, LRU, latency-only cache model.
type Cache struct {
	cfg       CacheConfig
	sets      [][]cacheLine
	setMask   uint64
	lineShift uint
	tick      uint64
	stats     CacheStats
}

// NewCache builds a cache from cfg; it panics on invalid geometry because
// configurations are static and validated at machine construction.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	sets := make([][]cacheLine, nsets)
	for i := range sets {
		sets[i] = make([]cacheLine, cfg.Assoc)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{cfg: cfg, sets: sets, setMask: uint64(nsets - 1), lineShift: shift}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns access counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Access touches addr and reports whether it hit. On a miss the line is
// filled (allocate-on-miss for both reads and writes).
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	c.stats.Accesses++
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> uint(len64(c.setMask))
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.stats.Misses++
	set[victim] = cacheLine{tag: tag, valid: true, lru: c.tick}
	return false
}

// Flush invalidates all lines (used between benchmark phases).
func (c *Cache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = cacheLine{}
		}
	}
}

func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// HierarchyConfig is the full memory-system configuration (Table 1 defaults
// via DefaultHierarchy).
type HierarchyConfig struct {
	L1I          CacheConfig
	L1D          CacheConfig
	L2           CacheConfig
	MemoryCycles int
	DataPorts    int // D-cache ports usable per cycle
}

// DefaultHierarchy returns the paper's Table 1 memory system: 16 kB L1I,
// 8 kB L1D (1 cycle), 1 MB unified L2 (12 cycles), 200-cycle memory.
//
// DataPorts is 4 rather than SimpleScalar's usual 2: CapC keeps locals in
// the frame (-O0 style) and so emits roughly twice the memory operations of
// the paper's `cc -O3` Alpha binaries; four ports restore the Table 1
// machine's port-to-memory-op ratio.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:          CacheConfig{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2, HitCycles: 1},
		L1D:          CacheConfig{Name: "L1D", SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2, HitCycles: 1},
		L2:           CacheConfig{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8, HitCycles: 12},
		MemoryCycles: 200,
		DataPorts:    4,
	}
}

// Doubled returns a copy with doubled L1D/L2 capacity and data ports, the
// configuration used in the paper's 175.vpr cache experiment.
func (h HierarchyConfig) Doubled() HierarchyConfig {
	h.L1D.SizeBytes *= 2
	h.L1I.SizeBytes *= 2
	h.L2.SizeBytes *= 2
	h.DataPorts *= 2
	return h
}

// Hierarchy bundles the cache levels and answers latency queries.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache
}

// NewHierarchy builds the cache hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1i: NewCache(cfg.L1I),
		l1d: NewCache(cfg.L1D),
		l2:  NewCache(cfg.L2),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// InstLatency returns the fetch latency for an instruction address.
func (h *Hierarchy) InstLatency(addr uint64) int {
	if h.l1i.Access(addr) {
		return h.cfg.L1I.HitCycles
	}
	if h.l2.Access(addr) {
		return h.cfg.L2.HitCycles
	}
	return h.cfg.MemoryCycles
}

// DataLatency returns the access latency for a data address.
func (h *Hierarchy) DataLatency(addr uint64) int {
	if h.l1d.Access(addr) {
		return h.cfg.L1D.HitCycles
	}
	if h.l2.Access(addr) {
		return h.cfg.L2.HitCycles
	}
	return h.cfg.MemoryCycles
}

// DataPorts returns the number of D-cache ports per cycle.
func (h *Hierarchy) DataPorts() int { return h.cfg.DataPorts }

// Stats returns (L1I, L1D, L2) counters.
func (h *Hierarchy) Stats() (CacheStats, CacheStats, CacheStats) {
	return h.l1i.Stats(), h.l1d.Stats(), h.l2.Stats()
}

// Flush invalidates every level.
func (h *Hierarchy) Flush() {
	h.l1i.Flush()
	h.l1d.Flush()
	h.l2.Flush()
}
