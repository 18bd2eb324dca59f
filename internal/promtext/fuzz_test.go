package promtext

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricName is the exposition format's metric name grammar.
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// FuzzParse feeds Parse an arbitrary exposition, then the same exposition
// with one well-formed `name value` line appended. Parse must never
// panic; every key it returns is a non-empty, single-line series that
// does not start a comment; and the appended line must come back as
// exactly its name and value (NaN as NaN), whatever came before it.
// Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add(exposition, "capsule_probes_total", 42.0)
	f.Fuzz(func(t *testing.T, in, name string, v float64) {
		for key := range Parse([]byte(in)) {
			if key == "" || strings.ContainsRune(key, '\n') || strings.HasPrefix(key, "#") {
				t.Fatalf("Parse(%q) returned key %q", in, key)
			}
		}
		if !metricName.MatchString(name) {
			return
		}
		line := name + " " + strconv.FormatFloat(v, 'g', -1, 64)
		got, ok := Parse([]byte(in + "\n" + line + "\n"))[name]
		if !ok || got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Fatalf("%q after %q: got %v (present %v), want %v", line, in, got, ok, v)
		}
	})
}
