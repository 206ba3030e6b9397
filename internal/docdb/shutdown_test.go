package docdb

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestServerShutdownDrainsIdleFree(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("models", Document{"name": "m"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown after clients left: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain of a quiet server took %v", elapsed)
	}
	// Idempotent with Close.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestServerShutdownForceClosesStragglers(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A raw connection that never sends anything and never closes: the
	// drain must give up on it at the timeout, not hang until IdleTimeout.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wait until the server registered the connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never registered the straggler connection")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	err = srv.Shutdown(100 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "force-closed 1") {
		t.Fatalf("Shutdown with a straggler = %v, want force-closed error", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("bounded drain took %v", elapsed)
	}
	// The straggler's socket is dead now.
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Fatal("straggler connection still alive after forced shutdown")
	}
}

func TestServerShutdownRefusesNewConns(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after Shutdown closed the listener")
	}
}

// TestServerWireCountersMove checks the tentpole's live-introspection
// claim at the package level: client round trips move the op and byte
// counters on the shared registry.
func TestServerWireCountersMove(t *testing.T) {
	before := obs.Default().Snapshot()
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Insert("models", Document{"name": "m"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("models", id); err != nil {
		t.Fatal(err)
	}

	d := obs.Default().Snapshot().Delta(before)
	for _, name := range []string{
		"docdb.client.ops", "docdb.client.bytes_out", "docdb.client.bytes_in",
		"docdb.server.ops", "docdb.server.bytes_in", "docdb.server.bytes_out",
	} {
		if d.Counters[name] <= 0 {
			t.Errorf("%s did not move: %d", name, d.Counters[name])
		}
	}
	lat := d.Histograms["docdb.client.op_us"]
	if lat.Count < 2 {
		t.Errorf("op latency histogram count = %d, want >= 2", lat.Count)
	}
}
