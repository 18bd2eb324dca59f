package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// reportRepeats is the driver's count: ten runs a workload, one seed each.
const reportRepeats = 10

// A report is every workload run reportRepeats times untraced (seeds
// seed, seed+1, …) and once traced, each run in a process of its own: fresh
// heap, fresh goroutines, its own getrusage numbers. The ten-seed spread
// it records is the one the driver computes; -compare reads two reports.
type report struct {
	Header    reportHeader     `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

type reportHeader struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"run_seconds"`
	Repeats    int    `json:"repeats"`
}

type workloadReport struct {
	Name string `json:"name"`
	// NoisyRuns counts the runs whose spin loop disagreed with itself by
	// more than a tenth. Noisy is set when that is more than a quarter
	// of the runs: up to a quarter, the quartiles do not see them.
	NoisyRuns int  `json:"noisy_runs"`
	Noisy     bool `json:"noisy"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// EndToEnd holds one value per untraced run, with the spread the
	// driver uses: (Q3 − Q1) ÷ median.
	EndToEnd map[string]*series `json:"end_to_end"`
	// PerLayer is the single traced run.
	PerLayer map[string]float64 `json:"per_layer"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

func (s *series) finish() {
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
}

// runResult is a single run's last output line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// child re-executes this binary for one run and parses what it printed.
func child(workload string, seed int64, trace int) (res runResult, isNoisy bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return res, false, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, false, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, false, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "note ") && strings.Contains(l, "noisy=true") {
			isNoisy = true
		}
	}
	return res, isNoisy, nil
}

func writeReport(path string, seed int64) error {
	rep := report{Header: reportHeader{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs(), CPUModel: cpuModel(), GoVersion: runtime.Version(),
		GitCommit: gitCommit(), Seed: seed, Seconds: runSeconds, Repeats: reportRepeats,
	}}
	for _, def := range workloadDefs {
		wr := workloadReport{Name: def.Name, EndToEnd: map[string]*series{}, PerLayer: map[string]float64{}}
		for i := 0; i < reportRepeats; i++ {
			res, n, err := child(def.Name, seed+int64(i), 0)
			if err != nil {
				return err
			}
			if n {
				wr.NoisyRuns++
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				if wr.EndToEnd[name] == nil {
					wr.EndToEnd[name] = &series{Unit: m.Unit}
				}
				wr.EndToEnd[name].Values = append(wr.EndToEnd[name].Values, m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %d attempted, %d failed\n", def.Name, seed+int64(i), res.Attempted, res.Failed)
		}
		for _, s := range wr.EndToEnd {
			s.finish()
		}
		res, n, err := child(def.Name, seed, 1)
		if err != nil {
			return err
		}
		if n {
			wr.NoisyRuns++
		}
		wr.Noisy = 4*wr.NoisyRuns > reportRepeats+1
		wr.Failed += res.Failed
		for name, m := range res.Metrics {
			wr.PerLayer[name] = m.Value
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	printSpreads(os.Stdout, &rep)
	return nil
}

// printSpreads is the README's spread table: one row per workload ×
// end-to-end metric.
func printSpreads(w io.Writer, rep *report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\t(q3-q1)/median\t(max-min)/median\tbound\tnoisy")
	for _, wr := range rep.Workloads {
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			if s == nil {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range s.Values {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g %s\t%.5g\t%.5g\t%.4f\t%.4f\t%.2f\t%t\n",
				wr.Name, d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.Spread, (hi-lo)/math.Abs(s.Median), *d.Bound, wr.Noisy)
		}
	}
	tw.Flush()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without git metadata still benchmarks
	}
	return string(bytes.TrimSpace(out))
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict compares b against base a for one metric. worsening is the
// share of a's median by which b is worse (negative: better).
//
//	unresolved  either report's own spread exceeds the bound, or a run was noisy
//	worse       b is worse than a by more than the bound
//	better      b is better than a by more than the bound
//	same        otherwise
func verdict(d metricDef, a, b *series, anyNoisy bool) (worsening float64, v string) {
	worsening = (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case anyNoisy || a.Spread > *d.Bound || b.Spread > *d.Bound:
		v = "unresolved"
	case worsening > *d.Bound:
		v = "worse"
	case worsening < -*d.Bound:
		v = "better"
	default:
		v = "same"
	}
	return worsening, v
}

// compareReports prints one row per workload × end-to-end metric: both
// medians, the ratio with its base, and the verdict.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base a = %s (%s, seed %d, %d×%ds)\n     b = %s (%s, seed %d, %d×%ds)\n",
		pathA, a.Header.GitCommit, a.Header.Seed, a.Header.Repeats, a.Header.Seconds,
		pathB, b.Header.GitCommit, b.Header.Seed, b.Header.Repeats, b.Header.Seconds)
	byName := map[string]*workloadReport{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a (base a)\tspread a\tspread b\tbound\tverdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\tmissing in b\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			_, v := verdict(d, sa, sb, wa.Noisy || wb.Noisy)
			fmt.Fprintf(tw, "%s\t%s\t%.5g %s\t%.5g %s\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n",
				wa.Name, d.Name, sa.Median, sa.Unit, sb.Median, sb.Unit, sb.Median/sa.Median, sa.Spread, sb.Spread, *d.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t-\t-\t-\t0\tworse\n",
				wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	return tw.Flush()
}
