package mem

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prog"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.ReadWord(0x12345) != 0 {
		t.Fatal("fresh memory should read zero")
	}
	if m.LoadByte(0xFFFF_FFFF_FFFF) != 0 {
		t.Fatal("fresh memory should read zero bytes")
	}
	if m.Footprint() != 0 {
		t.Fatal("reads must not allocate pages")
	}
}

func TestMemoryWordRoundTrip(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x1000, -42)
	if got := m.ReadWord(0x1000); got != -42 {
		t.Fatalf("got %d", got)
	}
	m.WriteWord(0x1008, 1<<62)
	if got := m.ReadWord(0x1008); got != 1<<62 {
		t.Fatalf("got %d", got)
	}
	// Little-endian byte layout.
	m.WriteWord(0x2000, 0x0102030405060708)
	if m.LoadByte(0x2000) != 0x08 || m.LoadByte(0x2007) != 0x01 {
		t.Fatal("not little-endian")
	}
}

func TestMemoryCrossPageWord(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // straddles the first page boundary
	m.WriteWord(addr, 0x1122334455667788)
	if got := m.ReadWord(addr); got != 0x1122334455667788 {
		t.Fatalf("cross-page word: got %#x", got)
	}
}

func TestMemoryFloatRoundTrip(t *testing.T) {
	m := NewMemory()
	m.WriteFloat(0x3000, 3.25)
	if got := m.ReadFloat(0x3000); got != 3.25 {
		t.Fatalf("got %v", got)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := NewMemory()
	src := []byte("hello capsule")
	m.StoreBytes(0x4000, src)
	if got := string(m.LoadBytes(0x4000, len(src))); got != string(src) {
		t.Fatalf("got %q", got)
	}
}

func TestQuickMemoryWordRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v int64) bool {
		a := uint64(addr)
		m.WriteWord(a, v)
		return m.ReadWord(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fuzzBases are the addresses FuzzMemory's accesses are drawn around: page
// and leaf edges inside the directory, the regions of prog's layout, the
// directory's own edge at the main stack's top, the map above it, and the
// top of the address space, where a word wraps to address 0.
var fuzzBases = [...]uint64{
	0,
	pageSize,
	1 << leafAddrShift,
	prog.DataBase,
	prog.HeapBase,
	prog.StackPoolLow,
	dirLimit,
	dirLimit + pageSize,
	1 << 32,
	1 << 63,
	math.MaxUint64 - pageSize + 1,
}

// fuzzOpBytes is one access in FuzzMemory's script: kind, base, a signed
// 16-bit offset from the base, and an 8-byte value for stores.
const fuzzOpBytes = 12

// FuzzMemory replays a script of byte, word and float stores and loads
// against a map of bytes, and holds every load and Footprint to it.
func FuzzMemory(f *testing.F) {
	op := func(kind, base byte, off int16, v uint64) []byte {
		b := binary.LittleEndian.AppendUint16([]byte{kind, base}, uint16(off))
		return binary.LittleEndian.AppendUint64(b, v)
	}
	script := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	f.Add(script(op(1, 0, 8, 0x0102030405060708), op(4, 0, 8, 0), op(3, 0, 15, 0)))
	f.Add(script(op(1, 1, -3, 0x1122334455667788), op(4, 1, -3, 0), op(3, 1, 0, 0)))
	f.Add(script(op(1, 6, -4, math.MaxUint64), op(4, 6, -4, 0), op(4, 6, -8, 0), op(2, 7, 100, 42)))
	f.Add(script(op(1, 10, 4092, 0xDEADBEEF), op(4, 10, 4092, 0), op(4, 0, -4, 0), op(3, 0, 0, 0)))
	f.Add(script(op(2, 4, 0, math.Float64bits(3.25)), op(5, 4, 0, 0), op(0, 8, -1, 7), op(3, 8, -1, 0)))
	f.Fuzz(func(t *testing.T, b []byte) {
		m := NewMemory()
		model := map[uint64]byte{}
		pages := map[uint64]bool{}
		store := func(addr uint64, v uint64, n int) {
			for i := range n {
				a := addr + uint64(i)
				model[a] = byte(v >> (8 * i))
				pages[a>>pageShift] = true
			}
		}
		load := func(addr uint64, n int) uint64 {
			var v uint64
			for i := range n {
				v |= uint64(model[addr+uint64(i)]) << (8 * i)
			}
			return v
		}
		for i := 0; i+fuzzOpBytes <= len(b); i += fuzzOpBytes {
			kind := b[i] % 6
			off := int16(binary.LittleEndian.Uint16(b[i+2:]))
			addr := fuzzBases[int(b[i+1])%len(fuzzBases)] + uint64(int64(off))
			v := binary.LittleEndian.Uint64(b[i+4:])
			var got, want uint64
			switch kind {
			case 0:
				m.StoreByte(addr, byte(v))
				store(addr, v, 1)
				continue
			case 1:
				m.WriteWord(addr, int64(v))
				store(addr, v, 8)
				continue
			case 2:
				m.WriteFloat(addr, math.Float64frombits(v))
				store(addr, v, 8)
				continue
			case 3:
				got, want = uint64(m.LoadByte(addr)), load(addr, 1)
			case 4:
				got, want = uint64(m.ReadWord(addr)), load(addr, 8)
			case 5:
				got, want = math.Float64bits(m.ReadFloat(addr)), load(addr, 8)
			}
			if got != want {
				t.Fatalf("op %d (kind %d) at %#x: read %#x, want %#x", i/fuzzOpBytes, kind, addr, got, want)
			}
		}
		if got := m.Footprint(); got != len(pages) {
			t.Fatalf("Footprint %d, want %d pages stored to", got, len(pages))
		}
	})
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "x", SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2, HitCycles: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.LineBytes = 33
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two line accepted")
	}
	bad = good
	bad.SizeBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero size accepted")
	}
	bad = good
	bad.HitCycles = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative hit latency accepted")
	}
	free := good
	free.HitCycles = 0
	if err := free.Validate(); err != nil {
		t.Fatalf("zero hit latency rejected: %v", err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitCycles: 1})
	if c.Access(0x100) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0x100) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x11F) {
		t.Fatal("same line should hit")
	}
	if c.Access(0x120) {
		t.Fatal("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way, 32B lines, 2 sets => set stride is 64 bytes.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 128, LineBytes: 32, Assoc: 2, HitCycles: 1})
	a, b, d := uint64(0), uint64(64), uint64(128) // all map to set 0
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b (LRU)
	if !c.Access(a) {
		t.Fatal("a should still be resident")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitCycles: 1})
	c.Access(0x40)
	c.Flush()
	if c.Access(0x40) {
		t.Fatal("flush should invalidate")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	cfg := h.Config()
	// Cold: miss everywhere -> memory latency.
	if got := h.DataLatency(0x1_0000); got != cfg.MemoryCycles {
		t.Fatalf("cold access latency = %d; want %d", got, cfg.MemoryCycles)
	}
	// Warm: L1 hit.
	if got := h.DataLatency(0x1_0000); got != cfg.L1D.HitCycles {
		t.Fatalf("warm access latency = %d; want %d", got, cfg.L1D.HitCycles)
	}
	// Evict from tiny L1 by touching many lines; the line should still hit L2.
	for i := 0; i < 4096; i++ {
		h.DataLatency(0x8_0000 + uint64(i)*32)
	}
	if got := h.DataLatency(0x1_0000); got != cfg.L2.HitCycles {
		t.Fatalf("L2 hit latency = %d; want %d", got, cfg.L2.HitCycles)
	}
	// Instruction path independent of data path.
	if got := h.InstLatency(0x2_0000); got != cfg.MemoryCycles {
		t.Fatalf("cold fetch latency = %d", got)
	}
	if got := h.InstLatency(0x2_0000); got != cfg.L1I.HitCycles {
		t.Fatalf("warm fetch latency = %d", got)
	}
}

func TestHierarchyDoubled(t *testing.T) {
	base := DefaultHierarchy()
	d := base.Doubled()
	if d.L1D.SizeBytes != 2*base.L1D.SizeBytes || d.L2.SizeBytes != 2*base.L2.SizeBytes {
		t.Fatal("doubling sizes failed")
	}
	if d.DataPorts != 2*base.DataPorts {
		t.Fatal("doubling ports failed")
	}
	// Geometry must remain valid.
	if err := d.L1D.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.L2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1DefaultsMatchPaper(t *testing.T) {
	h := DefaultHierarchy()
	if h.L1D.SizeBytes != 8<<10 {
		t.Errorf("L1D = %d; paper says 8kB", h.L1D.SizeBytes)
	}
	if h.L1I.SizeBytes != 16<<10 {
		t.Errorf("L1I = %d; paper says 16kB", h.L1I.SizeBytes)
	}
	if h.L2.SizeBytes != 1<<20 {
		t.Errorf("L2 = %d; paper says 1MB", h.L2.SizeBytes)
	}
	if h.L2.HitCycles != 12 {
		t.Errorf("L2 latency = %d; paper says 12", h.L2.HitCycles)
	}
	if h.MemoryCycles != 200 {
		t.Errorf("memory latency = %d; paper says 200", h.MemoryCycles)
	}
}
