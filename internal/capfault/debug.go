package capfault

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// wireRule is the JSON shape the debug API speaks: durations as integer
// milliseconds so curl scripts don't fight Go duration encoding.
//
//	POST /debug/fault {"kind":"latency","backend":"127.0.0.1:9001","delay_ms":200,"for_ms":5000}
//	GET  /debug/fault                      → {"seed":…,"rules":[…]}
//	DELETE /debug/fault?id=3               → clears rule 3
//	DELETE /debug/fault                    → clears everything
type wireRule struct {
	Kind         string  `json:"kind"`
	Backend      string  `json:"backend,omitempty"`
	P            float64 `json:"p,omitempty"`
	DelayMS      int64   `json:"delay_ms,omitempty"`
	JitterMS     int64   `json:"jitter_ms,omitempty"`
	Status       int     `json:"status,omitempty"`
	Chunk        int     `json:"chunk,omitempty"`
	ChunkDelayMS int64   `json:"chunk_delay_ms,omitempty"`
	ForMS        int64   `json:"for_ms,omitempty"`
}

type wireInfo struct {
	ID uint64 `json:"id"`
	wireRule
	ExpiresInMS int64  `json:"expires_in_ms,omitempty"`
	Decided     uint64 `json:"decided"`
	Fired       uint64 `json:"fired"`
}

func toWire(r Rule) wireRule {
	return wireRule{
		Kind:         string(r.Kind),
		Backend:      r.Backend,
		P:            r.P,
		DelayMS:      r.Delay.Milliseconds(),
		JitterMS:     r.Jitter.Milliseconds(),
		Status:       r.Status,
		Chunk:        r.Chunk,
		ChunkDelayMS: r.ChunkDelay.Milliseconds(),
		ForMS:        r.For.Milliseconds(),
	}
}

// maxWireMS bounds every wire duration (~34 years): far past any storm,
// and far enough inside int64 nanoseconds that neither the conversion
// nor an expiry deadline (now + For) can wrap around.
const maxWireMS = 1 << 40

func fromWire(w wireRule) (Rule, error) {
	for _, ms := range []int64{w.DelayMS, w.JitterMS, w.ChunkDelayMS, w.ForMS} {
		if ms < 0 || ms > maxWireMS {
			return Rule{}, fmt.Errorf("capfault: durations must be in [0, %d] ms, got %d", int64(maxWireMS), ms)
		}
	}
	return Rule{
		Kind:       Kind(w.Kind),
		Backend:    w.Backend,
		P:          w.P,
		Delay:      time.Duration(w.DelayMS) * time.Millisecond,
		Jitter:     time.Duration(w.JitterMS) * time.Millisecond,
		Status:     w.Status,
		Chunk:      w.Chunk,
		ChunkDelay: time.Duration(w.ChunkDelayMS) * time.Millisecond,
		For:        time.Duration(w.ForMS) * time.Millisecond,
	}, nil
}

// DebugHandler exposes the injector over HTTP for scripted storms. The
// debug plane (internal/capdebug) mounts it at /debug/fault on the
// -debug-addr side listener when -fault is set, and nowhere else: it
// must never be mounted on a serving address.
func (inj *Injector) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			rules := inj.Rules()
			out := struct {
				Seed  uint64     `json:"seed"`
				Rules []wireInfo `json:"rules"`
			}{Seed: inj.seed, Rules: make([]wireInfo, 0, len(rules))}
			for _, ri := range rules {
				out.Rules = append(out.Rules, wireInfo{
					ID:          ri.ID,
					wireRule:    toWire(ri.Rule),
					ExpiresInMS: ri.ExpiresIn.Milliseconds(),
					Decided:     ri.Decided,
					Fired:       ri.Fired,
				})
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(out)
		case http.MethodPost:
			var spec wireRule
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				http.Error(w, "capfault: bad rule JSON: "+err.Error(), http.StatusBadRequest)
				return
			}
			var id uint64
			rule, err := fromWire(spec)
			if err == nil {
				id, err = inj.Set(rule)
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				ID uint64 `json:"id"`
			}{ID: id})
		case http.MethodDelete:
			if q := r.URL.Query().Get("id"); q != "" {
				id, err := strconv.ParseUint(q, 10, 64)
				if err != nil {
					http.Error(w, "capfault: bad id", http.StatusBadRequest)
					return
				}
				inj.Clear(id)
			} else {
				inj.ClearAll()
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, POST, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
