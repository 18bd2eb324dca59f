package promtext

import (
	"fmt"
	"io"
	"strconv"
)

// Writer renders the exposition every /metrics in the repo serves: a
// family's HELP and TYPE lines once, then its samples. Labels are given
// as key, value pairs and rendered in that order, values quoted.
type Writer struct{ w io.Writer }

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) Writer { return Writer{w} }

// Family opens a family: its HELP and TYPE lines.
func (p Writer) Family(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Gauge writes a gauge family of one unlabelled sample.
func (p Writer) Gauge(name, help string, v float64) {
	p.Family(name, "gauge", help)
	p.Value(name, v)
}

// Counter writes a counter family of one unlabelled sample.
func (p Writer) Counter(name, help string, v uint64) {
	p.Family(name, "counter", help)
	p.Count(name, v)
}

// Value writes one sample of the open family.
func (p Writer) Value(name string, v float64, labels ...string) {
	p.series(name, labels)
	fmt.Fprintf(p.w, " %g\n", v)
}

// Count writes one integer sample of the open family.
func (p Writer) Count(name string, v uint64, labels ...string) {
	p.series(name, labels)
	fmt.Fprintf(p.w, " %d\n", v)
}

// Histogram writes one series of an open fixed-bucket histogram family:
// _bucket per bound and +Inf, _sum and _count. density holds the
// per-bucket counts (not cumulative), one per bound and the +Inf
// overflow last; _count is the +Inf cumulative, so the two always agree.
func (p Writer) Histogram(name string, bounds []float64, density []uint64, sum float64, labels ...string) {
	var cum uint64
	for i, le := range bounds {
		cum += density[i]
		p.Count(name+"_bucket", cum, append(labels, "le", strconv.FormatFloat(le, 'g', -1, 64))...)
	}
	cum += density[len(bounds)]
	p.Count(name+"_bucket", cum, append(labels, "le", "+Inf")...)
	p.Value(name+"_sum", sum, labels...)
	p.Count(name+"_count", cum, labels...)
}

func (p Writer) series(name string, labels []string) {
	io.WriteString(p.w, name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(p.w, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		io.WriteString(p.w, "}")
	}
}
