package capcluster

import (
	"net"
	"net/http"
	"testing"
	"time"
)

// startReplicaServer serves a router on a plain net/http server so the
// test can kill it without drain: http.Server.Close tears down the
// listener and every live connection, the in-process kill -9.
func startReplicaServer(t *testing.T, backends []string) (*Router, *http.Server, string) {
	t.Helper()
	r, err := New(Config{Backends: backends, Local: newLocal(t, 2, 256)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := &http.Server{Handler: r}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return r, srv, "http://" + ln.Addr().String()
}

// TestReplicaFailoverZeroFailedRequests is the tentpole's -race gate:
// two full router replicas front the same three backends, clients
// walk the replica list with failover, and one replica is killed
// without drain mid-storm. Every client request must still succeed —
// a dead replica costs one extra attempt, never a failed request — and
// before the kill both replicas must have dispatched to the fleet, so
// the kill interrupts two live remote tiers, not a local fallback.
func TestReplicaFailoverZeroFailedRequests(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startBackend(t, 2, 8).URL)
	}
	r0, srv0, target0 := startReplicaServer(t, urls)
	r1, _, target1 := startReplicaServer(t, urls)
	targets := []string{target0, target1}

	// The storm: every client prefers a replica and fails over on
	// transport error. Replica 0 dies hard at halftime, after each
	// replica's remote-served count is read.
	const d = time.Second
	var remote0, remote1 uint64
	killed := make(chan struct{})
	kill := time.AfterFunc(d/2, func() {
		defer close(killed)
		remote0, remote1 = r0.Stats().TierRemote, r1.Stats().TierRemote
		srv0.Close()
	})
	defer kill.Stop()
	succeeded, failed, failovers := stormClients(targets, 8, 64, d)
	<-killed

	if failed != 0 {
		t.Fatalf("%d client requests failed across the replica kill (%d succeeded), want 0", failed, succeeded)
	}
	if succeeded == 0 {
		t.Fatal("storm made no requests")
	}
	if remote0 == 0 || remote1 == 0 {
		t.Fatalf("remote-served requests before the kill: replica 0 %d, replica 1 %d; want both > 0", remote0, remote1)
	}
	// The kill must have been observable: half the clients preferred the
	// dead replica, so failovers must have happened.
	if failovers == 0 {
		t.Fatal("no failovers recorded across a replica kill — the kill was not exercised")
	}
}
