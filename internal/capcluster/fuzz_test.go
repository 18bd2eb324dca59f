package capcluster

import (
	"bufio"
	"strings"
	"testing"
)

// gaugeState is everything a credit advertisement may touch.
type gaugeState struct {
	gauge, feedSeq, feedDeltas, feedDrops, badHeaders, staleDecays uint64
	freshNS                                                        int64
}

func snapGauge(b *Backend) gaugeState {
	return gaugeState{
		gauge: b.gauge.Load(), feedSeq: b.feedSeq.Load(),
		feedDeltas: b.feedDeltas.Load(), feedDrops: b.feedDrops.Load(),
		badHeaders: b.badHeaders.Load(), staleDecays: b.staleDecays.Load(),
		freshNS: b.freshNS.Load(),
	}
}

// FuzzCreditAdvert feeds arbitrary input through both ways a backend's
// credits reach the gauge — the feed's line decoder (feedLine, into
// applyDelta) and the headroom header (learnHeader: parseHeadroom, into
// learn) — one line at a time, split as feedOnce's scanner splits, on a
// backend with dispatches in flight. After every step: no panic;
// credits stay in [0, creditCap]; inflight is untouched; feedSeq never
// decreases; a line without the "data: " prefix changes nothing on the
// feed path; and a rejected advertisement moves badHeaders by one and
// nothing else. Seeds live in testdata/fuzz/FuzzCreditAdvert.
func FuzzCreditAdvert(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		const inflight = 3
		clock := testClock(0)
		b := newBackend("http://127.0.0.1:1", "b0", 0, clock)
		for i := 0; i < inflight; i++ {
			if !b.probe() {
				t.Fatalf("setup probe %d refused", i)
			}
		}

		step := func(path, line string, apply func()) {
			clock.base.Add(1) // a clock that always moves, so any freshness write shows
			before := snapGauge(b)
			apply()
			after := snapGauge(b)
			if c := b.Credits(); c < 0 || c > creditCap {
				t.Fatalf("%s %q: credits %d outside [0, %d]", path, line, c, creditCap)
			}
			if got := b.Inflight(); got != inflight {
				t.Fatalf("%s %q: inflight %d, want %d untouched", path, line, got, inflight)
			}
			if after.feedSeq < before.feedSeq {
				t.Fatalf("%s %q: feedSeq regressed %d -> %d", path, line, before.feedSeq, after.feedSeq)
			}
			switch after.badHeaders - before.badHeaders {
			case 0:
			case 1:
				after.badHeaders = before.badHeaders
				if after != before {
					t.Fatalf("%s %q: rejected, yet state moved beyond badHeaders: %+v -> %+v", path, line, before, after)
				}
			default:
				t.Fatalf("%s %q: badHeaders moved by %d", path, line, after.badHeaders-before.badHeaders)
			}
			if path == "feed" && !strings.HasPrefix(line, "data: ") && after != before {
				t.Fatalf("feed %q: a non-data line changed state: %+v -> %+v", line, before, after)
			}
		}

		sc := bufio.NewScanner(strings.NewReader(in))
		for sc.Scan() {
			line := sc.Text()
			step("feed", line, func() { b.feedLine(line) })
			step("header", line, func() { b.learnHeader(line) })
		}
	})
}
