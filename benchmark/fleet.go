package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/httptune"
)

// fleet is the serving tiers stood up in process on loopback: capserve
// backends, optionally behind one capcluster router, and the tuned
// client the load comes through. All traffic is loopback TCP — the wire
// rows price net/http and the kernel's socket path, not a link.
type fleet struct {
	contexts int
	rec      *recorder // nil: bare tiers, as a user runs them

	mu       sync.Mutex // guards backends (churn replaces one) and runtimes
	backends []*capserve.Backend
	runtimes []*capsule.Runtime // every runtime ever started: counters and Close

	local  *capserve.Server
	router *capcluster.Router
	front  *http.Server // serves the router
	cancel context.CancelFunc
	bg     sync.WaitGroup // refresh ticker, occupancy sampler

	url    string // where the clients send
	client *http.Client
	pool   []request
	want   []uint64

	connsOpened, occupancySum, occupancySamples atomic.Int64

	// served counts the responses each backend (by name, fixed at start)
	// sent back through the router, as the clients saw them.
	index  map[string]int
	served []atomic.Int64
}

const (
	clientTimeout   = 10 * time.Second
	refreshInterval = time.Second            // caprouter's default -refresh
	occupancyTick   = 100 * time.Millisecond // 10 Hz QueueOccupancy sampling
	closeTimeout    = 5 * time.Second
)

// startFleet starts nBackends backends and, when routed, a router with
// default placement, credit feeds and the refresh ticker cmd/caprouter
// runs.
func startFleet(nBackends int, routed bool, contexts int, pl *plan, want []uint64, rec *recorder) (_ *fleet, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{
		contexts: contexts, rec: rec, cancel: cancel,
		client: httptune.Client(contexts, clientTimeout), pool: pl.Pool, want: want,
		index: map[string]int{},
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var urls []string
	for i := 0; i < nBackends; i++ {
		b, err := f.startBackend("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		f.backends = append(f.backends, b)
		urls = append(urls, b.URL)
		f.index[strings.TrimPrefix(b.URL, "http://")] = i
	}
	f.served = make([]atomic.Int64, nBackends)
	f.url = urls[0]
	if routed {
		f.local, err = capserve.New(capserve.Config{Runtime: f.newRuntime()})
		if err != nil {
			return nil, err
		}
		cfg := capcluster.Config{Backends: urls, Local: f.local}
		if rec != nil {
			// The transport New builds when Config.Transport is nil, so
			// that the wrapper is the only difference from the bare router.
			cfg.Transport = &tracedTransport{next: capcluster.DefaultTransport(0), rec: rec}
		}
		if f.router, err = capcluster.New(cfg); err != nil {
			return nil, err
		}
		f.router.Refresh()
		f.router.StartFeeds(ctx)
		f.every(ctx, refreshInterval, f.router.Refresh)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var h http.Handler = f.router
		if rec != nil {
			h = rec.handler(kRouter, h)
		}
		f.front = &http.Server{Handler: h}
		go f.front.Serve(ln) // returns when close shuts front down
		f.url = "http://" + ln.Addr().String()
	}
	if rec != nil {
		f.every(ctx, occupancyTick, func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			for _, b := range f.backends {
				f.occupancySum.Add(int64(b.Server.QueueOccupancy()))
			}
			f.occupancySamples.Add(1)
		})
	}
	return f, nil
}

func (f *fleet) newRuntime() *capsule.Runtime {
	rt := newRuntime(f.contexts)
	f.mu.Lock()
	f.runtimes = append(f.runtimes, rt)
	f.mu.Unlock()
	return rt
}

func (f *fleet) startBackend(addr string) (*capserve.Backend, error) {
	var wrap func(string, http.Handler) http.Handler
	if f.rec != nil {
		wrap = func(_ string, h http.Handler) http.Handler { return f.rec.handler(kCapserve, h) }
	}
	return capserve.StartBackendOn(capserve.Config{Runtime: f.newRuntime()}, addr, wrap)
}

// every runs fn on a ticker until ctx is cancelled; close waits for it.
func (f *fleet) every(ctx context.Context, d time.Duration, fn func()) {
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// runReply is the part of capserve's run response the client checks.
type runReply struct {
	Checksum  uint64 `json:"checksum"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Degraded  bool   `json:"degraded"`
}

func (f *fleet) exec(rid uint32, idx int32) opResult {
	rq := f.pool[idx]
	url := f.url + "/run/" + rq.Workload + "?n=" + strconv.Itoa(rq.N) +
		"&seed=" + strconv.FormatInt(rq.Seed, 10) + "&" + ridParam + strconv.FormatUint(uint64(rid), 10)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return opResult{err: err}
	}
	if f.rec != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				if !info.Reused {
					f.connsOpened.Add(1)
				}
			},
		}))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return opResult{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return opResult{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return opResult{err: fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
	var reply runReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return opResult{err: err}
	}
	backend := resp.Header.Get(capcluster.HeaderBackend)
	if i, ok := f.index[backend]; ok {
		f.served[i].Add(1)
	}
	return opResult{
		wrong: reply.Checksum != f.want[idx], elapsedNS: reply.ElapsedNS, degraded: reply.Degraded,
		backend: backend,
	}
}

func (f *fleet) counters() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var stats []capsule.Stats
	for _, rt := range f.runtimes {
		stats = append(stats, rt.Stats())
	}
	c := capsuleCounters(stats...)
	for _, b := range f.backends {
		c["capserve.shed"] += float64(b.Server.ShedCount())
	}
	c["wire.conns_opened"] = float64(f.connsOpened.Load())
	c["_capserve.occupancy_sum"] = float64(f.occupancySum.Load())
	c["_capserve.occupancy_samples"] = float64(f.occupancySamples.Load())
	if f.router != nil {
		c["capserve.shed"] += float64(f.local.ShedCount())
		s := f.router.Stats()
		c["_capcluster.requests"] = float64(s.Requests)
		c["_capcluster.remote_probes"] = float64(s.RemoteProbes)
		c["_capcluster.remote_grants"] = float64(s.RemoteGrants)
		c["_capcluster.local_fallbacks"] = float64(s.LocalFallbacks)
		c["capcluster.credit_denies"] = float64(s.CreditDenies)
		c["capcluster.breaker_denies"] = float64(s.BreakerDenies)
		c["capcluster.remote_sheds"] = float64(s.RemoteSheds)
		c["capcluster.deaths"] = float64(s.Deaths)
	}
	return c
}

// close stops everything the fleet started and waits for it: tickers and
// feeds first, then the router's listener, then each backend in its
// documented drain order, then every runtime's workers.
func (f *fleet) close() {
	f.cancel()
	f.bg.Wait()
	f.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	if f.front != nil {
		f.front.Shutdown(ctx) // on timeout the backends' Close below still cuts the rest
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.backends {
		if b.Close(ctx) != nil {
			b.Kill()
		}
	}
	for _, rt := range f.runtimes {
		rt.Close()
	}
}

// churn kills one backend a third of the way into the window and
// restarts it on the same address at two thirds. The victim is whichever
// backend has served the most so far: the router's placement is free to
// leave a backend nearly idle, and killing that one would exercise
// nothing.
type churn struct {
	f      *fleet
	victim int
	// Offsets from the window start, and the restarted backend's name.
	killedAt, restartedAt time.Duration
	name                  string
	err                   error
	done                  chan struct{}
}

func newChurn(f *fleet) *churn { return &churn{f: f, done: make(chan struct{})} }

func (c *churn) start(dur time.Duration) {
	begin := time.Now()
	go func() {
		defer close(c.done)
		time.Sleep(dur / 3)
		for i := range c.f.served {
			if c.f.served[i].Load() > c.f.served[c.victim].Load() {
				c.victim = i
			}
		}
		c.f.mu.Lock()
		old := c.f.backends[c.victim]
		c.f.mu.Unlock()
		old.Kill()
		c.killedAt = time.Since(begin)
		c.name = strings.TrimPrefix(old.URL, "http://")

		time.Sleep(2*dur/3 - time.Since(begin))
		var nb *capserve.Backend
		// The port was just released; give the kernel a few tries.
		for try := 0; try < 20; try++ {
			if nb, c.err = c.f.startBackend(c.name); c.err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if c.err != nil {
			return
		}
		c.f.mu.Lock()
		c.f.backends[c.victim] = nb
		c.f.mu.Unlock()
		c.restartedAt = time.Since(begin)
	}()
}

func (c *churn) wait() error {
	<-c.done
	return c.err
}

// churnRows: how the outage looked to clients, and how long the router
// took to send the restarted backend its first request.
func (r *runner) churnRows(w *window, c *churn) {
	var outage []int64
	readmit := time.Duration(-1)
	for _, x := range w.samples {
		if x.ok && x.start >= c.killedAt && x.start < c.restartedAt {
			outage = append(outage, int64(x.lat))
		}
		if done := x.start + x.lat; x.backend == c.name && x.start >= c.restartedAt && (readmit < 0 || done < readmit) {
			readmit = done
		}
	}
	r.layer["capcluster.outage_p95_ms"] = percentileOrZero(outage, 95) / 1e6
	if readmit >= 0 {
		r.layer["capcluster.readmit_s"] = (readmit - c.restartedAt).Seconds()
	}
}

func (r *runner) fleetBuild(nBackends int, routed bool) func(*plan, []uint64, *recorder) (target, error) {
	return func(pl *plan, want []uint64, rec *recorder) (target, error) {
		f, err := startFleet(nBackends, routed, r.P, pl, want, rec)
		if err != nil {
			return nil, err // not a nil *fleet inside a non-nil target
		}
		return f, nil
	}
}

func runServeOpen(r *runner) error {
	return r.runTimed(timedSpec{
		setUp: r.mixSetUp(fineMix, serveOpenRate, r.fleetBuild(1, false)), clients: r.P, root: kClient,
	})
}

const clusterBackends = 3

func runClusterRoute(r *runner) error {
	return r.runTimed(timedSpec{
		setUp: r.mixSetUp(clusterMix, 0, r.fleetBuild(clusterBackends, true)), clients: r.P, root: kClient,
	})
}

func runClusterChurn(r *runner) error {
	return r.runTimed(timedSpec{
		setUp: r.mixSetUp(clusterMix, 0, r.fleetBuild(clusterBackends, true)), clients: r.P, root: kClient,
		churn: true,
	})
}
