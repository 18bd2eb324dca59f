// Package promtext is a minimal reader for the Prometheus text
// exposition format (version 0.0.4). The repo hand-rolls its exposition
// writers (capserve, capcluster) because the container forbids new
// dependencies; this is the matching reader, shared by everything that
// scrapes — capload's before/after diffs and the tests that read an
// exposition back — so the format's quirks live in exactly one place.
//
// Scope matches what our writers emit: sample lines without timestamps.
// A line carrying the optional timestamp field would be keyed wrongly
// and should be rejected by the caller's semantic checks, not here —
// parsers of foreign expositions must stay permissive.
package promtext

import (
	"strconv"
	"strings"
)

// Parse maps each sample line of an exposition to its value, keyed by
// the full series name including any label set (`name{a="b"}`).
// Comments, blank lines and malformed lines are skipped.
func Parse(exposition []byte) map[string]float64 {
	samples := map[string]float64{}
	for _, line := range strings.Split(string(exposition), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			continue
		}
		samples[line[:i]] = v
	}
	return samples
}

// Value returns the unlabelled series' sample.
func Value(samples map[string]float64, name string) (float64, bool) {
	v, ok := samples[name]
	return v, ok
}

// LabelValue extracts one label's (unquoted) value from a series key as
// produced by Parse: LabelValue(`x{backend="a:1"}`, "x", "backend")
// returns ("a:1", true). It returns false when the key is a different
// series or lacks the label.
func LabelValue(key, name, label string) (string, bool) {
	rest, ok := strings.CutPrefix(key, name+"{")
	if !ok {
		return "", false
	}
	rest, ok = strings.CutSuffix(rest, "}")
	if !ok {
		return "", false
	}
	// Our writers never emit commas or escapes inside label values, so a
	// plain split is exact here; foreign expositions may defeat it, in
	// which case the label simply won't be found.
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k != label {
			continue
		}
		if uq, err := strconv.Unquote(v); err == nil {
			return uq, true
		}
		return v, true
	}
	return "", false
}
