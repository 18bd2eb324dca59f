// Package httptune is the one place the repo widens net/http's client
// transport for sustained closed-loop traffic. The default transport
// keeps only 2 idle connections per host — any load generator or router
// driving one backend with more than 2 concurrent requests re-dials
// constantly and measures TCP churn instead of the server. Every
// in-repo HTTP client (capload, the capcluster storm tests' loop, the
// capcluster dispatch client) builds its transport here, so transport
// fixes land once.
package httptune

import (
	"net/http"
	"time"
)

// Transport clones http.DefaultTransport (keeping its dialer, proxy and
// timeout defaults) and sizes the idle-connection pool to maxIdlePerHost
// concurrent requests per backend, with no global idle cap.
func Transport(maxIdlePerHost int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // unlimited; the per-host cap is the bound
	t.MaxIdleConnsPerHost = maxIdlePerHost
	return t
}

// Client is Transport wrapped in an http.Client with the given
// per-request timeout — the common shape for the repo's load loops.
func Client(maxIdlePerHost int, timeout time.Duration) *http.Client {
	return &http.Client{Transport: Transport(maxIdlePerHost), Timeout: timeout}
}
