package capscope

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
)

// /debug/incident follows the debug plane's one merge convention
// (internal/capdebug): GET answers a JSON array of Lists in recorder
// order, the lead member first — one element for a lone capserve, the
// router's list then one per spawned backend for a fleet. ?id= fetches
// one bundle in full (searched across every recorder); DELETE clears
// (?id= for one bundle, bare for everything).

// List is one recorder's incident index — the GET /debug/incident
// response shape.
type List struct {
	Source         string     `json:"source"`
	Dir            string     `json:"dir"`
	IncidentsTotal uint64     `json:"incidents_total"` // captured this process lifetime
	Bundles        []Manifest `json:"bundles"`         // resident on disk, oldest first
}

// listOf builds the recorder's current index.
func (r *Recorder) listOf() List {
	ms := LoadManifests(r.dir)
	if ms == nil {
		ms = []Manifest{}
	}
	return List{Source: r.source, Dir: r.dir, IncidentsTotal: r.incidents.Load(), Bundles: ms}
}

// Handler serves GET/DELETE /debug/incident over the given recorders
// (a router passes itself first, then its spawned backends').
func Handler(recs ...*Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		if id != "" && !validBundleID(id) {
			http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
			return
		}
		switch req.Method {
		case http.MethodGet:
			if id != "" {
				for _, r := range recs {
					b, err := LoadBundle(filepath.Join(r.dir, id))
					if err != nil || b.Manifest.ID != id {
						continue
					}
					w.Header().Set("Content-Type", "application/json")
					json.NewEncoder(w).Encode(b)
					return
				}
				http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
				return
			}
			lists := make([]List, len(recs))
			for i, r := range recs {
				lists[i] = r.listOf()
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(lists)
		case http.MethodDelete:
			n := 0
			for _, r := range recs {
				if id != "" {
					n += r.Clear(id)
				} else {
					n += r.ClearAll()
				}
			}
			if id != "" && n == 0 {
				http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"cleared\":%d}\n", n)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
