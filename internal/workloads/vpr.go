package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// VPR is the 175.vpr proxy: "the component implements FPGA routing and
// placement by simultaneously exploring many circuit graph paths". The
// proxy is a negotiated-congestion (Pathfinder-style) maze router on a
// 4-connected grid: each iteration re-routes every net by a cost-directed
// wavefront exploration (the componentised part: path exploration divides
// exactly like the Dijkstra worker), then overused cells accumulate
// history cost; the router converges when no cell is overused.
//
// Like the paper's vpr, the parallel version can converge in a different
// number of iterations than the sequential one (path choice under equal
// costs depends on exploration order); validation is by invariants: all
// paths connected and, on convergence, no overuse. The working set
// (dist/pred/stamp/hist/usage over the grid) thrashes the 8 kB L1D, which
// is why the paper's cache-doubling experiment helps this workload.

// VPRInput is one routing instance.
type VPRInput struct {
	W, H     int
	Nets     [][2]int32 // (src, dst) cell ids
	MaxIters int
	Capacity int // cell capacity (paper-style unit capacity)
}

// GenVPR builds a grid and random nets with distinct-ish endpoints pushed
// through a congested centre.
func GenVPR(rng *rand.Rand, w, h, nets, maxIters int) *VPRInput {
	in := &VPRInput{W: w, H: h, MaxIters: maxIters, Capacity: 2}
	for len(in.Nets) < nets {
		// Force crossings: sources on the left edge region, sinks right.
		sx, sy := rng.Intn(w/4), rng.Intn(h)
		dx, dy := w-1-rng.Intn(w/4), rng.Intn(h)
		src := int32(sy*w + sx)
		dst := int32(dy*w + dx)
		if src != dst {
			in.Nets = append(in.Nets, [2]int32{src, dst})
		}
	}
	return in
}

func vprSrc(variant Variant, maxCells, maxNets, maxPath int) string {
	common := fmt.Sprintf(`
const MAXC = %d;
const MAXNET = %d;
const MAXPATH = %d;
const INF = %d;
const OVERPEN = 8;      // present-congestion penalty per unit of usage
const HISTINC = 2;      // history increment for overused cells
var width;
var height;
var ncells;
var nnets;
var capacity;
var maxiter;
var nsrc[MAXNET];
var ndst[MAXNET];
var dist[MAXC];
var pred[MAXC];
var stamp[MAXC];
var gen;
var hist[MAXC];
var usage[MAXC];
var pathlen[MAXNET];
var pathbuf[MAXNET * MAXPATH];
var iters;
var converged;
var placecost;
const MARKSTART = %d;
const MARKEND = %d;

// cellcost: negotiated congestion cost of entering a cell.
func cellcost(c) {
	return 1 + hist[c] + usage[c] * OVERPEN;
}
`, maxCells, maxNets, maxPath, DijkstraInf, core.MarkSectionStart, core.MarkSectionEnd)

	explore := `
%[1]s explore(cell, d, from) {
	lock(dist + cell * 8);
	var known = INF;
	if (stamp[cell] == gen) { known = dist[cell]; }
	if (d >= known) {
		unlock(dist + cell * 8);
		return 0;
	}
	dist[cell] = d;
	pred[cell] = from;
	stamp[cell] = gen;
	unlock(dist + cell * 8);
	var x = cell %% width;
	var y = cell / width;
	if (y > 0) {
		var nb = cell - width;
		%[2]s
	}
	if (y < height - 1) {
		var nb = cell + width;
		%[2]s
	}
	if (x > 0) {
		var nb = cell - 1;
		%[2]s
	}
	if (x < width - 1) {
		var nb = cell + 1;
		%[2]s
	}
	return 0;
}
`
	spawn := "coworker explore(nb, d + cellcost(nb), cell);"
	kw := "worker"
	joinStmt := "join();"
	if variant == VariantImperative {
		spawn = "explore(nb, d + cellcost(nb), cell);"
		kw = "func"
		joinStmt = ""
	}

	mainBody := fmt.Sprintf(`
func routenet(net) {
	gen = gen + 1;
	var s = nsrc[net];
	explore(s, 0, s);
	%s
	// Walk the path back from the sink, marking usage.
	var p = ndst[net];
	var k = 0;
	while (k < MAXPATH) {
		pathbuf[net * MAXPATH + k] = p;
		k = k + 1;
		usage[p] = usage[p] + 1;
		if (p == s) { break; }
		p = pred[p];
	}
	pathlen[net] = k;
	return 0;
}

func main() {
	iters = 0;
	converged = 0;
	gen = 0;
	print(MARKSTART);
	while (iters < maxiter) {
		iters = iters + 1;
		var c;
		for (c = 0; c < ncells; c = c + 1) { usage[c] = 0; }
		var net;
		for (net = 0; net < nnets; net = net + 1) {
			routenet(net);
		}
		var over = 0;
		for (c = 0; c < ncells; c = c + 1) {
			if (usage[c] > capacity) {
				over = over + 1;
				hist[c] = hist[c] + HISTINC;
			}
		}
		if (over == 0) {
			converged = 1;
			break;
		}
	}
	print(MARKEND);
	// The small non-componentised remainder: a placement-cost style scan.
	var i;
	var pc = 0;
	for (i = 0; i < nnets; i = i + 1) {
		var s = nsrc[i];
		var d = ndst[i];
		var dx = s %% width - d %% width;
		if (dx < 0) { dx = 0 - dx; }
		var dy = s / width - d / width;
		if (dy < 0) { dy = 0 - dy; }
		pc = pc + dx + dy;
	}
	placecost = pc;
	print(iters);
	print(converged);
}
`, joinStmt)

	return common + fmt.Sprintf(explore, kw, spawn) + mainBody
}

// VPRProgram compiles (cached) the requested variant.
func VPRProgram(variant Variant, maxCells, maxNets, maxPath int) (*prog.Program, error) {
	key := fmt.Sprintf("vpr-%s-%d-%d-%d", variant, maxCells, maxNets, maxPath)
	return cachedBuild(key, func() string { return vprSrc(variant, maxCells, maxNets, maxPath) })
}

// vprMaxPath bounds stored path length.
func vprMaxPath(in *VPRInput) int { return capRound(4 * (in.W + in.H)) }

// VPRResult summarises a validated routing run.
type VPRResult struct {
	Run        *core.RunResult
	Iterations int64
	Converged  bool
}

// RunVPR simulates one instance and validates routing invariants: every
// net's stored path walks adjacent cells from sink to source, and if the
// router claims convergence, no cell exceeds capacity.
func RunVPR(in *VPRInput, variant Variant, cfg cpu.Config) (*VPRResult, error) {
	maxPath := vprMaxPath(in)
	base, err := VPRProgram(variant, capRound(in.W*in.H), capRound(len(in.Nets)), maxPath)
	if err != nil {
		return nil, err
	}
	src, dst := make([]int64, len(in.Nets)), make([]int64, len(in.Nets))
	for i, net := range in.Nets {
		src[i], dst[i] = int64(net[0]), int64(net[1])
	}
	p, err := image(base, scalar("g_width", in.W), scalar("g_height", in.H), scalar("g_ncells", in.W*in.H),
		scalar("g_nnets", len(in.Nets)), scalar("g_capacity", in.Capacity), scalar("g_maxiter", in.MaxIters),
		global{"g_nsrc", src}, global{"g_ndst", dst})
	if err != nil {
		return nil, err
	}
	res, err := simulate(p, cfg, func(res *core.RunResult, p *prog.Program) error { return checkVPR(res, p, in, maxPath) })
	if err != nil {
		return nil, err
	}
	out := res.UserOutput()
	return &VPRResult{Run: res, Iterations: out[0], Converged: out[1] == 1}, nil
}

// checkVPR walks every net's stored path and, if the router claims
// convergence, checks that no cell is over capacity.
func checkVPR(res *core.RunResult, p *prog.Program, in *VPRInput, maxPath int) error {
	out := res.UserOutput()
	if len(out) != 2 {
		return fmt.Errorf("vpr: output = %v", out)
	}
	usage := make([]int, in.W*in.H)
	for net := range in.Nets {
		plen, err := core.ReadWord(res.Mem, p, "g_pathlen", net)
		if err != nil {
			return err
		}
		if plen <= 0 || plen > int64(maxPath) {
			return fmt.Errorf("vpr: net %d path length %d", net, plen)
		}
		prev := int64(-1)
		for k := int64(0); k < plen; k++ {
			cell, err := core.ReadWord(res.Mem, p, "g_pathbuf", net*maxPath+int(k))
			if err != nil {
				return err
			}
			if k == 0 && cell != int64(in.Nets[net][1]) {
				return fmt.Errorf("vpr: net %d path does not start at sink", net)
			}
			if prev >= 0 && !gridAdjacent(in.W, prev, cell) {
				return fmt.Errorf("vpr: net %d: %d -> %d not adjacent", net, prev, cell)
			}
			usage[cell]++
			prev = cell
		}
		if prev != int64(in.Nets[net][0]) {
			return fmt.Errorf("vpr: net %d path does not reach source", net)
		}
	}
	if out[1] == 1 {
		for c, u := range usage {
			if u > in.Capacity {
				return fmt.Errorf("vpr: claims convergence but cell %d used %d > %d", c, u, in.Capacity)
			}
		}
	}
	return nil
}

func gridAdjacent(w int, a, b int64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d == int64(w) {
		return true
	}
	if d == 1 {
		return a/int64(w) == b/int64(w)
	}
	return false
}
