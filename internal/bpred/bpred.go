// Package bpred implements the branch predictors of the paper's Table 1
// configuration: a combined predictor with a 1K-entry meta table choosing
// between a 4K-entry bimodal predictor and an 8K-entry second-level gAp
// (per-address history, global pattern table) predictor, plus a return
// address stack used per hardware context.
package bpred

// Config sizes the predictor tables. Entries must be powers of two.
type Config struct {
	BimodalEntries int // 2-bit counters indexed by PC
	MetaEntries    int // 2-bit chooser counters
	PatternEntries int // gAp second-level 2-bit counters
	HistoryEntries int // gAp first-level per-branch history registers
	HistoryBits    int // history length feeding the pattern table
	RASDepth       int // return address stack depth per context
}

// Default returns the Table 1 predictor: combined, 1K meta, 4K bimodal,
// 8K-entry gAp second level.
func Default() Config {
	return Config{
		BimodalEntries: 4096,
		MetaEntries:    1024,
		PatternEntries: 8192,
		HistoryEntries: 1024,
		HistoryBits:    13,
		RASDepth:       16,
	}
}

// Stats counts prediction outcomes.
type Stats struct {
	Lookups uint64
	Correct uint64
}

// Accuracy returns the fraction of correct predictions.
func (s Stats) Accuracy() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Lookups)
}

// Predictor is the combined direction predictor. It is shared by all
// hardware contexts, as in the paper's SMT (predictor state is not
// per-thread).
type Predictor struct {
	cfg     Config
	bimodal []uint8
	meta    []uint8
	pattern []uint8
	history []uint16
	stats   Stats
}

// New builds a predictor; table sizes are rounded up to powers of two.
func New(cfg Config) *Predictor {
	pow2 := func(n int) int {
		if n < 2 {
			return 2
		}
		p := 1
		for p < n {
			p <<= 1
		}
		return p
	}
	cfg.BimodalEntries = pow2(cfg.BimodalEntries)
	cfg.MetaEntries = pow2(cfg.MetaEntries)
	cfg.PatternEntries = pow2(cfg.PatternEntries)
	cfg.HistoryEntries = pow2(cfg.HistoryEntries)
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 16 {
		cfg.HistoryBits = 13
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, cfg.BimodalEntries),
		meta:    make([]uint8, cfg.MetaEntries),
		pattern: make([]uint8, cfg.PatternEntries),
		history: make([]uint16, cfg.HistoryEntries),
	}
	// Weakly taken initial state, the usual SimpleScalar default.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.pattern {
		p.pattern[i] = 2
	}
	for i := range p.meta {
		p.meta[i] = 2 // weakly prefer the two-level predictor
	}
	return p
}

func taken(counter uint8) bool { return counter >= 2 }

func bump(counter uint8, t bool) uint8 {
	if t {
		if counter < 3 {
			return counter + 1
		}
		return counter
	}
	if counter > 0 {
		return counter - 1
	}
	return counter
}

func (p *Predictor) bimodalIdx(pc uint64) int { return int(pc) & (len(p.bimodal) - 1) }
func (p *Predictor) metaIdx(pc uint64) int    { return int(pc) & (len(p.meta) - 1) }
func (p *Predictor) histIdx(pc uint64) int    { return int(pc) & (len(p.history) - 1) }

func (p *Predictor) patternIdx(pc uint64) int {
	h := p.history[p.histIdx(pc)] & uint16(1<<p.cfg.HistoryBits-1)
	// XOR-fold the PC into the history index (gshare-flavoured gAp).
	return (int(h) ^ int(pc)) & (len(p.pattern) - 1)
}

// Predict returns the predicted direction for the branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	useTwoLevel := taken(p.meta[p.metaIdx(pc)])
	if useTwoLevel {
		return taken(p.pattern[p.patternIdx(pc)])
	}
	return taken(p.bimodal[p.bimodalIdx(pc)])
}

// Update trains the predictor with the resolved outcome and returns whether
// the earlier prediction (recomputed here against the pre-update state) was
// correct.
func (p *Predictor) Update(pc uint64, outcome bool) bool {
	bi := p.bimodalIdx(pc)
	pi := p.patternIdx(pc)
	mi := p.metaIdx(pc)
	bimodalPred := taken(p.bimodal[bi])
	twoLevelPred := taken(p.pattern[pi])
	pred := bimodalPred
	if taken(p.meta[mi]) {
		pred = twoLevelPred
	}

	// Meta table trains toward whichever component was right (only when
	// they disagree).
	if bimodalPred != twoLevelPred {
		p.meta[mi] = bump(p.meta[mi], twoLevelPred == outcome)
	}
	p.bimodal[bi] = bump(p.bimodal[bi], outcome)
	p.pattern[pi] = bump(p.pattern[pi], outcome)
	hi := p.histIdx(pc)
	p.history[hi] = p.history[hi]<<1 | b2u(outcome)

	p.stats.Lookups++
	if pred == outcome {
		p.stats.Correct++
		return true
	}
	return false
}

func b2u(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// Stats returns cumulative prediction statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// RAS is a return-address stack. Each hardware context owns one; it predicts
// the target of indirect jumps used as returns.
type RAS struct {
	stack []uint64
	top   int
}

// NewRAS returns a RAS with the given depth (minimum 1).
func NewRAS(depth int) *RAS {
	if depth < 1 {
		depth = 1
	}
	return &RAS{stack: make([]uint64, depth)}
}

// Push records a return address (on call).
func (r *RAS) Push(addr uint64) {
	r.stack[r.top%len(r.stack)] = addr
	r.top++
}

// Pop predicts the next return target; ok is false when the stack is empty.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%len(r.stack)], true
}

// Clone duplicates the RAS (used when a worker divides: the child inherits
// the parent's call stack expectations).
func (r *RAS) Clone() *RAS {
	c := &RAS{}
	c.CopyFrom(r)
	return c
}

// CopyFrom makes r a copy of src without allocating when both have the
// same depth (a division's child context inheriting its parent's stack).
func (r *RAS) CopyFrom(src *RAS) {
	if len(r.stack) != len(src.stack) {
		r.stack = make([]uint64, len(src.stack))
	}
	copy(r.stack, src.stack)
	r.top = src.top
}

// Reset empties the stack.
func (r *RAS) Reset() { r.top = 0 }
