package capcluster

import (
	"fmt"
	"io"
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
	place, err := NewPlacement("rendezvous")
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	r, err := New(Config{
		Backends:      backends,
		Local:         newLocal(t, 2, 256),
		Placement:     place,
		FailThreshold: 2,
		FailWindow:    400 * time.Millisecond,
		Timeout:       5 * time.Second,
	})
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
// two full caprouter replicas front the same three backends, clients
// walk the replica list with failover, and one replica is killed
// without drain mid-storm. Every client request must still succeed —
// a dead replica costs one extra attempt, never a failed request — and
// before the kill, rendezvous placement must agree across replicas:
// the same key routed through either replica names the same backend.
func TestReplicaFailoverZeroFailedRequests(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startBackend(t, 2, 8).URL)
	}
	_, srv0, target0 := startReplicaServer(t, urls)
	_, _, target1 := startReplicaServer(t, urls)
	targets := []string{target0, target1}

	// Placement agreement, while the fleet is idle: keys that dispatch
	// remotely through both replicas must land on the same backend.
	client := &http.Client{Timeout: 5 * time.Second}
	checked := 0
	for s := 0; s < 8; s++ {
		var names []string
		remote := true
		for _, target := range targets {
			resp, err := client.Get(fmt.Sprintf("%s/run/quicksort?n=64&seed=%d", target, 9000+s))
			if err != nil {
				t.Fatalf("placement probe via %s: %v", target, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.Header.Get(HeaderRoute) != "remote" {
				remote = false
				break
			}
			names = append(names, resp.Header.Get(HeaderBackend))
		}
		if !remote {
			continue
		}
		checked++
		if names[0] != names[1] {
			t.Fatalf("placement disagreement for seed %d: %q via replica 0, %q via replica 1", 9000+s, names[0], names[1])
		}
	}
	if checked == 0 {
		t.Fatal("no key dispatched remotely via both replicas; placement agreement unchecked")
	}

	// The storm: every client prefers a replica and fails over on
	// transport error. Replica 0 dies hard at halftime.
	const d = time.Second
	kill := time.AfterFunc(d/2, func() { srv0.Close() })
	defer kill.Stop()
	succeeded, failed, failovers := stormClients(targets, 8, 64, d)

	if failed != 0 {
		t.Fatalf("%d client requests failed across the replica kill (%d succeeded), want 0", failed, succeeded)
	}
	if succeeded == 0 {
		t.Fatal("storm made no requests")
	}
	// The kill must have been observable: half the clients preferred the
	// dead replica, so failovers must have happened.
	if failovers == 0 {
		t.Fatal("no failovers recorded across a replica kill — the kill was not exercised")
	}
}
