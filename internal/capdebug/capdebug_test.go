package capdebug

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
)

// fleet is one topology as the binaries assemble it: the serving
// handler, the -debug-addr side mux, and the member names every plane
// must report, lead first.
type fleet struct {
	serve, side http.Handler
	names       []string
}

func newPlane(t *testing.T, dbg *Flags) *Plane {
	t.Helper()
	p, err := dbg.NewPlane()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func add(t *testing.T, p *Plane, name string, tr Tiers, dir string) *Member {
	t.Helper()
	m, err := p.Add(name, tr.Runtime.Tracer(), tr, dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// lone is cmd/capserve: one member, named by -trace-source's default.
func lone(t *testing.T, dbg *Flags) fleet {
	p := newPlane(t, dbg)
	rt := capsule.New(capsule.Config{Contexts: 2, Tracer: dbg.NewTracer()})
	t.Cleanup(rt.Close)
	srv, err := capserve.New(capserve.Config{Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	Mount(srv.Mount, add(t, p, "capserve", Tiers{Runtime: rt, Server: srv}, dbg.IncidentDir))
	return fleet{srv, p.DebugMux(), []string{"capserve"}}
}

// routed is cmd/caprouter -spawn 2: each backend named by its host:port,
// the router leading.
func routed(t *testing.T, dbg *Flags) fleet {
	p := newPlane(t, dbg)
	var urls []string
	names := []string{"caprouter"}
	for i := 0; i < 2; i++ {
		b, err := capserve.StartBackendOn(capserve.Config{
			Runtime: capsule.New(capsule.Config{Contexts: 2, Tracer: dbg.NewTracer()}),
		}, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			b.Close(ctx)
			b.Runtime().Close()
		})
		name := strings.TrimPrefix(b.URL, "http://")
		Mount(b.Server.Mount, add(t, p, name, Tiers{Runtime: b.Runtime(), Server: b.Server}, filepath.Join(dbg.IncidentDir, name)))
		urls, names = append(urls, b.URL), append(names, name)
	}
	rt := capsule.New(capsule.Config{Contexts: 2, Tracer: dbg.NewTracer()})
	t.Cleanup(rt.Close)
	local, err := capserve.New(capserve.Config{Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	router, err := capcluster.New(capcluster.Config{Backends: urls, Local: local, Tracer: rt.Tracer()})
	if err != nil {
		t.Fatal(err)
	}
	add(t, p, "caprouter", Tiers{Runtime: rt, Server: local, Router: router}, filepath.Join(dbg.IncidentDir, "caprouter"))
	Mount(router.Mount, p.Members...)
	return fleet{router, p.DebugMux(), names}
}

// TestPlane is the debug plane's contract on both topologies: every
// /debug/{trace,watch,incident} answer, on the serving mux and on the
// side listener, is a JSON array naming the same members in the same
// order, lead first; /debug/trace is 404 with tracing off; /debug/fault
// lives on the side listener only.
func TestPlane(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace bool
		build func(*testing.T, *Flags) fleet
	}{
		{"lone capserve", true, lone},
		{"router + 2 spawned backends", true, routed},
		{"lone capserve, tracing off", false, lone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("plane", flag.ContinueOnError)
			dbg := Register(fs)
			if err := fs.Parse([]string{"-fault", "-incident-dir", t.TempDir(), "-trace=" + strconv.FormatBool(tc.trace)}); err != nil {
				t.Fatal(err)
			}
			f := tc.build(t, dbg)
			get := func(h http.Handler, path string) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
				return w
			}
			for _, path := range []string{"/debug/trace", "/debug/watch", "/debug/incident"} {
				for mux, h := range map[string]http.Handler{"serving": f.serve, "side": f.side} {
					w := get(h, path)
					if path == "/debug/trace" && !tc.trace {
						if w.Code != http.StatusNotFound {
							t.Errorf("%s %s with tracing off: %d, want 404", mux, path, w.Code)
						}
						continue
					}
					var members []struct{ Source string }
					if err := json.Unmarshal(w.Body.Bytes(), &members); w.Code != http.StatusOK || err != nil {
						t.Fatalf("%s %s: %d, not an array (%v): %.200s", mux, path, w.Code, err, w.Body.Bytes())
					}
					var names []string
					for _, m := range members {
						names = append(names, m.Source)
					}
					if !slices.Equal(names, f.names) {
						t.Errorf("%s %s names %v, want %v", mux, path, names, f.names)
					}
				}
			}
			if w := get(f.serve, "/debug/fault"); w.Code != http.StatusNotFound {
				t.Errorf("serving mux answers /debug/fault: %d", w.Code)
			}
			if w := get(f.side, "/debug/fault"); w.Code != http.StatusOK {
				t.Errorf("side mux /debug/fault: %d, want 200", w.Code)
			}
		})
	}
}
