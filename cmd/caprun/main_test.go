package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"repro/internal/doccmd"
)

// TestRunEveryWorkload runs each native workload through the command at a
// small size: the text report must say the result was validated against
// the Go reference, and the JSON report must show division offers.
func TestRunEveryWorkload(t *testing.T) {
	for _, tc := range []struct{ workload, n string }{
		{"quicksort", "5000"},
		{"dijkstra", "500"},
		{"lzw", "4096"},
		{"perceptron", "1024"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			args := []string{"-workload", tc.workload, "-n", tc.n, "-seed", "3", "-workers", "4"}
			var text bytes.Buffer
			if err := run(append(args, "-stats"), &text); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text.String(), "(validated against Go reference)") {
				t.Errorf("text report does not say it was validated:\n%s", text.String())
			}
			var out bytes.Buffer
			if err := run(append(args, "-json"), &out); err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Workload string `json:"workload"`
				Stats    struct {
					Probes uint64 `json:"probes"`
				} `json:"stats"`
			}
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatalf("JSON report: %v\n%s", err, out.String())
			}
			if rep.Workload != tc.workload || rep.Stats.Probes == 0 {
				t.Errorf("JSON report = %+v, want workload %s with probes > 0", rep, tc.workload)
			}
		})
	}
}

// TestRunRejectsBadInput: a bad size or an unknown workload is an error,
// not a report.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-workload", "nosuch", "-n", "10"},
		{"-workers", "-1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded:\n%s", args, out.String())
		}
	}
}

// TestDocCommands parses, with the command's own flag set, every
// documented caprun line: a documented command must name only flags that
// exist. It runs none of them.
func TestDocCommands(t *testing.T) {
	doccmd.Check(t, "caprun", 9, 0, func() *flag.FlagSet { fs, _ := newFlagSet(); return fs })
}
