package capscope

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// Bundle layout: one directory per incident, named after the manifest
// ID (inc-<seq>-<trigger>-<unixms>), containing
//
//	manifest.json   — identity, trigger, reason, SLO verdict, file list
//	watch.json      — one-element array of the capwatch Report at
//	                  capture time, the /debug/watch schema
//	trace.json      — one-element array of captrace Snapshots (newest
//	                  TraceEvents), the /debug/trace schema
//	cpu.pprof       — bounded CPU profile burst (ProfileDuration)
//	heap.pprof      — heap profile
//	goroutines.txt  — full goroutine dump (pprof debug=2)
//	fault.json      — live capfault rule set (when an injector is wired)
//	backends.json   — per-backend credit/breaker/ejection table (router)
//
// The capture writes into a dot-prefixed temp dir and renames it into
// place, so a bundle either exists completely or not at all — a crash
// mid-capture leaves only a temp dir the next New sweeps away.

// Standard bundle file names.
const (
	FileManifest   = "manifest.json"
	FileWatch      = "watch.json"
	FileTrace      = "trace.json"
	FileCPU        = "cpu.pprof"
	FileHeap       = "heap.pprof"
	FileGoroutines = "goroutines.txt"
	FileFault      = "fault.json"
	FileBackends   = "backends.json"
)

// Manifest identifies one incident bundle: what fired, why, and what
// the SLO evaluator saw at that instant. It is written last inside the
// temp dir, so its presence marks a complete capture.
type Manifest struct {
	ID            string  `json:"id"`
	Seq           uint64  `json:"seq"`
	Source        string  `json:"source"`
	Trigger       string  `json:"trigger"`
	Reason        string  `json:"reason"`
	TakenAtUnixMS int64   `json:"taken_at_unix_ms"`
	CooldownS     float64 `json:"cooldown_s"`

	Build buildinfo.Info     `json:"build"`
	SLO   capwatch.SLOReport `json:"slo"`
	Files []string           `json:"files"`
	Notes []string           `json:"notes,omitempty"`
}

// FaultDoc is fault.json: whether the injector was armed and the live
// rules — a bundle caused by a staged storm says so in the artifact.
type FaultDoc struct {
	Armed bool                `json:"armed"`
	Rules []capfault.RuleInfo `json:"rules"`
}

// BackendsDoc is backends.json: the router's view of its fleet at
// capture time, raw cumulative counters plus gauges.
type BackendsDoc struct {
	Names    []string                     `json:"names"`
	Router   capcluster.RouterCounters    `json:"router"`
	Backends []capcluster.BackendCounters `json:"backends"`
}

// capture assembles one bundle. It runs on its own goroutine; the
// in-flight guard in observe keeps captures from overlapping within a
// recorder, and cpuProfMu keeps CPU profiling exclusive process-wide.
func (r *Recorder) capture(trigger, reason string, slo capwatch.SLOReport, now time.Time) {
	r.mu.Lock()
	seq := r.seq
	r.seq++
	r.mu.Unlock()

	id := fmt.Sprintf("inc-%06d-%s-%d", seq, trigger, now.UnixMilli())
	tmp := filepath.Join(r.dir, ".tmp-"+id)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		r.errors.Add(1)
		return
	}
	m := Manifest{
		ID:            id,
		Seq:           seq,
		Source:        r.source,
		Trigger:       trigger,
		Reason:        reason,
		TakenAtUnixMS: now.UnixMilli(),
		CooldownS:     r.cooldown.Seconds(),
		Build:         buildinfo.Get(),
		SLO:           slo,
	}
	writeJSON := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(tmp, name), data, 0o644)
		}
		if err != nil {
			m.Notes = append(m.Notes, fmt.Sprintf("%s: %v", name, err))
			return
		}
		m.Files = append(m.Files, name)
	}

	if r.sampler != nil {
		writeJSON(FileWatch, []capwatch.Report{r.sampler.Report(0)})
	}
	writeJSON(FileTrace, []captrace.Snapshot{r.tracer.Snapshot(r.source, TraceEvents)})
	if r.cfg.Fault != nil {
		rules := r.cfg.Fault.Rules()
		if rules == nil {
			rules = []capfault.RuleInfo{}
		}
		writeJSON(FileFault, FaultDoc{Armed: r.cfg.Fault.Armed(), Rules: rules})
	}
	if rt := r.cfg.Router; rt != nil {
		doc := BackendsDoc{
			Names:    rt.BackendNames(),
			Router:   rt.ReadCounters(),
			Backends: make([]capcluster.BackendCounters, len(r.curBackends)),
		}
		rt.ReadBackendCounters(doc.Backends)
		writeJSON(FileBackends, doc)
	}

	// CPU profile burst: bounded, exclusive, skipped (with a note)
	// rather than queued when another profile is running.
	switch {
	case r.profDur <= 0:
		m.Notes = append(m.Notes, "cpu profile disabled (ProfileDuration < 0)")
	case !cpuProfMu.TryLock():
		m.Notes = append(m.Notes, "cpu profile skipped: another profile in flight")
	default:
		func() {
			defer cpuProfMu.Unlock()
			f, err := os.Create(filepath.Join(tmp, FileCPU))
			if err != nil {
				m.Notes = append(m.Notes, fmt.Sprintf("%s: %v", FileCPU, err))
				return
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				m.Notes = append(m.Notes, fmt.Sprintf("%s: %v", FileCPU, err))
				return
			}
			time.Sleep(r.profDur)
			pprof.StopCPUProfile()
			m.Files = append(m.Files, FileCPU)
		}()
	}

	if f, err := os.Create(filepath.Join(tmp, FileHeap)); err == nil {
		if err := pprof.Lookup("heap").WriteTo(f, 0); err == nil {
			m.Files = append(m.Files, FileHeap)
		} else {
			m.Notes = append(m.Notes, fmt.Sprintf("%s: %v", FileHeap, err))
		}
		f.Close()
	}
	if f, err := os.Create(filepath.Join(tmp, FileGoroutines)); err == nil {
		if err := pprof.Lookup("goroutine").WriteTo(f, 2); err == nil {
			m.Files = append(m.Files, FileGoroutines)
		} else {
			m.Notes = append(m.Notes, fmt.Sprintf("%s: %v", FileGoroutines, err))
		}
		f.Close()
	}

	// Manifest last: a temp dir without one is a torn capture.
	data, err := json.MarshalIndent(m, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(tmp, FileManifest), data, 0o644)
	}
	if err != nil {
		os.RemoveAll(tmp)
		r.errors.Add(1)
		return
	}

	r.mu.Lock()
	err = os.Rename(tmp, filepath.Join(r.dir, id))
	if err == nil {
		r.pruneLocked()
	}
	r.mu.Unlock()
	if err != nil {
		os.RemoveAll(tmp)
		r.errors.Add(1)
		return
	}
	r.incidents.Add(1)
}

// Clear removes one bundle by ID; ClearAll removes every bundle. Both
// return the number removed.
func (r *Recorder) Clear(id string) int {
	if !validBundleID(id) {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := os.Stat(filepath.Join(r.dir, id, FileManifest)); err != nil {
		return 0
	}
	if os.RemoveAll(filepath.Join(r.dir, id)) != nil {
		return 0
	}
	return 1
}

// ClearAll removes every complete bundle in the recorder's dir.
func (r *Recorder) ClearAll() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range LoadManifests(r.dir) {
		if os.RemoveAll(filepath.Join(r.dir, m.ID)) == nil {
			n++
		}
	}
	return n
}

// validBundleID rejects anything that could escape the bundle dir.
func validBundleID(id string) bool {
	return strings.HasPrefix(id, "inc-") && !strings.ContainsAny(id, "/\\") && id != "" &&
		filepath.Base(id) == id
}

// LoadManifests indexes a bundle directory: every inc-* subdir with a
// readable manifest, oldest (lowest sequence) first. Torn or foreign
// dirs are skipped, so every ID it returns names a direct child of dir.
// Shared by the recorder, the HTTP handler and the capscope CLI's
// directory mode.
func LoadManifests(dir string) []Manifest {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []Manifest
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "inc-") {
			continue
		}
		m, err := LoadManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// LoadManifest reads one bundle dir's manifest. A bundle's ID is its
// directory's name: a manifest naming another bundle is foreign, and an
// error, since callers join the ID back onto the recorder's dir.
func LoadManifest(bundleDir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(bundleDir, FileManifest))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("capscope: %s: %w", bundleDir, err)
	}
	name := filepath.Base(bundleDir)
	if m.ID != "" && m.ID != name {
		return m, fmt.Errorf("capscope: %s: foreign manifest names bundle %q", bundleDir, m.ID)
	}
	m.ID = name
	return m, nil
}

// Bundle is one incident with every artifact inline — the JSON shape
// GET /debug/incident?id= serves. Profiles ride as base64 ([]byte's
// encoding/json default); JSON artifacts ride raw.
type Bundle struct {
	Manifest    Manifest        `json:"manifest"`
	Watch       json.RawMessage `json:"watch,omitempty"`
	Trace       json.RawMessage `json:"trace,omitempty"`
	Fault       json.RawMessage `json:"fault,omitempty"`
	Backends    json.RawMessage `json:"backends,omitempty"`
	CPUProfile  []byte          `json:"cpu_pprof,omitempty"`
	HeapProfile []byte          `json:"heap_pprof,omitempty"`
	Goroutines  string          `json:"goroutines,omitempty"`
}

// LoadBundle reads one bundle dir in full.
func LoadBundle(bundleDir string) (*Bundle, error) {
	m, err := LoadManifest(bundleDir)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Manifest: m}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(bundleDir, name))
		if err != nil {
			return nil
		}
		return data
	}
	b.Watch = read(FileWatch)
	b.Trace = read(FileTrace)
	b.Fault = read(FileFault)
	b.Backends = read(FileBackends)
	b.CPUProfile = read(FileCPU)
	b.HeapProfile = read(FileHeap)
	b.Goroutines = string(read(FileGoroutines))
	return b, nil
}
