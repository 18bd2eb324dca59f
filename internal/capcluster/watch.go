package capcluster

import (
	"io"
	"net/http"
)

// Mount registers an additional handler on the router's mux (the debug
// plane's /debug/trace, /debug/watch and /debug/incident). Call before
// serving starts; the mux is not synchronized against in-flight requests.
func (r *Router) Mount(pattern string, h http.Handler) { r.mux.Handle(pattern, h) }

// AddMetrics appends an extra exposition writer to the router's
// /metrics, emitted after the caprouter_* series and the local tier's
// exposition. Wire before serving starts.
func (r *Router) AddMetrics(f func(io.Writer)) { r.extraMetrics = append(r.extraMetrics, f) }
