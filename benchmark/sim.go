package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workloads"
)

// simInput is one data set for each of the paper's four component
// programs, generated from the run's seed.
type simInput struct {
	list  []int64
	graph *workloads.DijkstraInput
	lzw   *workloads.LZWInput
	perc  *workloads.PerceptronInput
}

func genSimInput(seed int64) *simInput {
	rng := rand.New(rand.NewSource(seed))
	return &simInput{
		list:  workloads.GenList(rng, workloads.ListUniform, simQuickSortN),
		graph: workloads.GenGraph(rng, simDijkstraN, workloads.GenDijkstraMaxDeg, workloads.GenDijkstraMaxW),
		lzw:   workloads.GenLZW(rng, simLZWN),
		perc:  workloads.GenPerceptron(rng, simPerceptronN, workloads.GenPerceptronPats, workloads.GenPerceptronEpochs),
	}
}

// simMachine pairs a machine with the program variant the paper runs on
// it: components on SOMT, the imperative baseline on the superscalar.
type simMachine struct {
	cfg     cpu.Config
	variant workloads.Variant
}

func simMachines() [2]simMachine {
	return [2]simMachine{
		{cpu.SOMTConfig(), workloads.VariantComponent},
		{cpu.SuperscalarConfig(), workloads.VariantImperative},
	}
}

// simulate runs program p of in on m. Every Run* checks the simulated
// output against its Go reference and fails on a mismatch.
func simulate(p int, in *simInput, m simMachine) (*core.RunResult, error) {
	switch simPrograms[p] {
	case "quicksort":
		return workloads.RunQuickSort(in.list, m.variant, m.cfg)
	case "dijkstra":
		return workloads.RunDijkstra(in.graph, m.variant, m.cfg)
	case "lzw":
		return workloads.RunLZW(in.lzw, m.variant, m.cfg)
	default:
		return workloads.RunPerceptron(in.perc, m.variant, m.cfg)
	}
}

// buildPrograms compiles and links all eight programs (CapC → asm →
// image), each sized to the input's own dimensions. The workloads
// package memoises builds, so a process can time this once; it also
// rounds capacities up privately, so where a rounded capacity differs
// from the input's, the warm-up pass builds that program again.
func buildPrograms(in *simInput) error {
	for _, m := range simMachines() {
		for _, build := range []func() error{
			func() error { _, err := workloads.QuickSortProgram(m.variant, len(in.list)); return err },
			func() error {
				_, err := workloads.DijkstraProgram(m.variant, in.graph.N, len(in.graph.EDst))
				return err
			},
			func() error {
				_, err := workloads.LZWProgram(m.variant, len(in.lzw.Text), len(in.lzw.Next))
				return err
			},
			func() error {
				_, err := workloads.PerceptronProgram(m.variant, in.perc.Neurons, in.perc.Patterns)
				return err
			},
		} {
			if err := build(); err != nil {
				return err
			}
		}
	}
	return nil
}

// simulator runs sim_paper's fixed work. One op is a pass: the four
// programs on both machines, each output checked against its Go
// reference. One caller drives it.
type simulator struct {
	in *simInput
	// first[program][machine] is the first pass's statistics; every later
	// pass must repeat them exactly.
	first  [4][2]*cpu.Stats
	hostNS [2]int64
	cycles [2]uint64
	passes uint32
}

// pass does one pass and adds it to w. A wrong simulated output or a
// count that does not repeat is not a slow run, it is a broken simulator:
// it ends the run.
func (t *simulator) pass(w *window, rec *recorder) error {
	t.passes++
	cpu0 := readRusage().cpu
	passStart := time.Now()
	for p := range simPrograms {
		for mi, m := range simMachines() {
			start := time.Now()
			res, err := simulate(p, t.in, m)
			took := time.Since(start)
			if err != nil {
				return err
			}
			if seen := t.first[p][mi]; seen == nil {
				stats := res.Stats
				t.first[p][mi] = &stats
			} else if *seen != res.Stats {
				return fmt.Errorf("exact-count drift: %s on %s: %+v then %+v", simPrograms[p], simArchs[mi], *seen, res.Stats)
			}
			if rec != nil {
				end := rec.now()
				rec.add(kSim, t.passes, end-int64(took), end)
			}
			t.hostNS[mi] += int64(took)
			t.cycles[mi] += res.Cycles
		}
	}
	took := time.Since(passStart)
	if rec != nil {
		end := rec.now()
		rec.add(kOp, t.passes, end-int64(took), end)
	}
	w.samples = append(w.samples, sample{start: w.dur, lat: took, ok: true})
	w.dur += took
	w.cpu += readRusage().cpu - cpu0
	return nil
}

func runSimPaper(r *runner) error {
	start := time.Now()
	in := genSimInput(r.seed)
	built := time.Now()
	if err := buildPrograms(in); err != nil {
		return err
	}
	buildMS := ms(time.Since(built))
	r.setups = []float64{time.Since(start).Seconds()}

	// One warm-up pass, discarded like the timed workloads' warm-up: the
	// heap grows to size in it, and the workloads package builds whatever
	// it wants at another capacity than set-up chose.
	sim := &simulator{in: in}
	if err := sim.pass(&window{}, nil); err != nil {
		return err
	}
	// A traced run wraps every other pass; the bare ones between them are
	// the base of trace.overhead_ratio.
	var rec *recorder
	if r.traced {
		r.layer["env.peak_rss_mb"] = readRusage().peakMB
		rec = newRecorder()
	}
	bare, w := &window{}, &window{}
	for i := 0; i < simPasses; i++ {
		var err error
		if r.traced && i%2 == 0 {
			err = sim.pass(bare, nil)
		} else {
			err = sim.pass(w, rec)
		}
		if err != nil {
			return err
		}
	}
	if !r.traced {
		_, err := r.endToEndRows(w)
		return err
	}
	if err := r.tracedRows(bare, w, rec); err != nil {
		return err
	}
	r.layer["core.build_ms"] = buildMS
	sim.rows(r.layer)
	return nil
}

// rows reports the simulator's layers: host speed from the run's totals,
// everything else from the exact statistics of one pass.
func (t *simulator) rows(layer map[string]float64) {
	for mi, arch := range simArchs {
		layer["cpu.host_ns_per_cycle."+arch] = float64(t.hostNS[mi]) / float64(t.cycles[mi])
	}
	layer["cpu.sim_cycles_per_s"] = float64(t.cycles[0]+t.cycles[1]) / (float64(t.hostNS[0]+t.hostNS[1]) / 1e9)

	var somt cpu.Stats // sums over the SOMT runs
	var insts uint64
	logSpeedup := 0.0
	for p, prog := range simPrograms {
		for mi, arch := range simArchs {
			st := t.first[p][mi]
			layer["cpu.cycles."+prog+"."+arch] = float64(st.Cycles)
			insts += st.Insts
		}
		logSpeedup += math.Log(float64(t.first[p][1].Cycles) / float64(t.first[p][0].Cycles))
		st := t.first[p][0]
		somt.DivRequested += st.DivRequested
		somt.DivGranted += st.DivGranted
		somt.NoCtxDenies += st.NoCtxDenies
		somt.ThrottleDenies += st.ThrottleDenies
		somt.SwapsOut += st.SwapsOut
		somt.SwapsIn += st.SwapsIn
		somt.LockStallCycles += st.LockStallCycles
		somt.L1D.Accesses += st.L1D.Accesses
		somt.L1D.Misses += st.L1D.Misses
		somt.L2.Accesses += st.L2.Accesses
		somt.L2.Misses += st.L2.Misses
		somt.BranchStats.Lookups += st.BranchStats.Lookups
		somt.BranchStats.Correct += st.BranchStats.Correct
	}
	layer["cpu.sim_speedup_geomean"] = math.Exp(logSpeedup / float64(len(simPrograms)))
	layer["cpu.insts_total"] = float64(insts)
	layer["cpu.div_requested"] = float64(somt.DivRequested)
	layer["cpu.div_granted"] = float64(somt.DivGranted)
	layer["cpu.noctx_denies"] = float64(somt.NoCtxDenies)
	layer["cpu.throttle_denies"] = float64(somt.ThrottleDenies)
	layer["cpu.swaps"] = float64(somt.SwapsOut + somt.SwapsIn)
	layer["cpu.lock_stall_cycles"] = float64(somt.LockStallCycles)
	layer["mem.l1d_miss_ratio"] = somt.L1D.MissRate()
	layer["mem.l2_miss_ratio"] = somt.L2.MissRate()
	layer["bpred.mispredict_ratio"] = 1 - somt.BranchStats.Accuracy()
}
