// Package promtext is the repo's one implementation of the Prometheus
// text exposition format (version 0.0.4): the Writer every /metrics
// renders through (write.go), a minimal reader, and the histogram-pair
// quantile math the telemetry readers share (quantile.go). The repo
// stays free of dependencies, so the format's quirks live here and only
// here; the reader is the test oracle for the writer (capserve's and
// capcluster's trace_test.go read their /metrics bodies back through
// Parse).
//
// Scope matches what the Writer emits: sample lines without timestamps.
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
