// Command mmserver runs the metadata document-database server — the role
// MongoDB plays on its dedicated machine in the paper's evaluation setup.
// Nodes and servers connect with mmlib.ConnectStores.
//
// Usage:
//
//	mmserver -addr :7070 -data /var/mmlib/meta -files /var/mmlib/files
//
// With -data the store persists JSON documents on disk; without it the
// server keeps everything in memory. With -files (alongside -data) the
// server additionally runs crash recovery over the shared file store at
// startup, before accepting connections: saves interrupted mid-flight are
// rolled back via their write-ahead staging records (core.RecoverOrphans). With -debug-addr it additionally
// serves live introspection: /metrics (JSON, or Prometheus text with
// ?format=prom), /healthz, and /debug/pprof/*. On SIGINT/SIGTERM it
// drains in-flight connections for up to -drain-timeout and logs a final
// metrics snapshot before exiting.
package main

import (
	"bytes"
	"flag"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/docdb"
	"repro/internal/faultnet"
	"repro/internal/filestore"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		data      = flag.String("data", "", "persistence directory (empty = in-memory)")
		filesDir  = flag.String("files", "", "shared file-store directory; with -data, crashed saves are rolled back at startup (core.RecoverOrphans)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof/* on this address (empty = disabled)")
		drain     = flag.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight connections before force-closing them")
		frate     = flag.Float64("fault-rate", 0, "chaos testing: inject connection faults (drops, torn frames, delays) into every accepted connection at this per-operation probability")
		fseed     = flag.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		workers   = flag.Int("workers-per-conn", 0, "concurrent requests served per connection (0 = default)")
	)
	applyLog := obs.LogFlags(flag.CommandLine)
	flag.Parse()
	applyLog()

	var backend docdb.Store
	if *data == "" {
		backend = docdb.NewMemStore()
	} else {
		disk, err := docdb.OpenDisk(*data)
		if err != nil {
			obs.Fatalf("mmserver: %v", err)
		}
		backend = disk
	}
	if *filesDir != "" && *data != "" {
		// Crash recovery runs before the listener opens — no save can be in
		// flight yet, which RecoverOrphans requires. Saves that never
		// committed their root document are rolled back; completed saves
		// only lose their stale staging records.
		files, err := filestore.Open(*filesDir)
		if err != nil {
			obs.Fatalf("mmserver: %v", err)
		}
		rep, err := core.RecoverOrphans(core.Stores{Meta: backend, Files: files})
		if err != nil {
			obs.Fatalf("mmserver: startup orphan recovery: %v", err)
		}
		if rep.Scanned > 0 {
			obs.Warnf("mmserver: startup orphan recovery: %s", rep)
		} else {
			obs.Infof("mmserver: startup orphan recovery: store clean")
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		obs.Fatalf("mmserver: %v", err)
	}
	if *frate > 0 {
		// Chaos mode: every accepted connection misbehaves on a seeded
		// schedule, so client fault tolerance can be exercised against a
		// real deployment.
		ln = faultnet.WrapListener(ln, faultnet.Config{Seed: *fseed, Rate: *frate})
		obs.Warnf("mmserver: injecting faults at rate %.3f (seed %d)", *frate, *fseed)
	}
	srv := docdb.NewServerWith(backend, ln, docdb.ServerOptions{WorkersPerConn: *workers})
	obs.Infof("mmserver listening on %s (persistence: %s)", srv.Addr(), orMem(*data))

	var debug *obs.DebugServer
	if *debugAddr != "" {
		debug, err = obs.ServeDebug(*debugAddr, obs.Default())
		if err != nil {
			obs.Fatalf("mmserver: debug listener: %v", err)
		}
		obs.Infof("mmserver: debug surface on http://%s/metrics", debug.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	obs.Infof("mmserver: %v: draining connections (timeout %s)", got, *drain)
	if err := srv.Shutdown(*drain); err != nil {
		obs.Warnf("mmserver: %v", err)
	}
	// The final snapshot is the server's last words: what the process
	// handled over its lifetime, in the same JSON shape /metrics serves.
	var buf bytes.Buffer
	if err := obs.Default().Snapshot().WriteJSON(&buf); err == nil {
		obs.Infof("mmserver: final metrics: %s", buf.String())
	}
	if debug != nil {
		if err := debug.Close(); err != nil {
			obs.Warnf("mmserver: debug close: %v", err)
		}
	}
}

func orMem(s string) string {
	if s == "" {
		return "in-memory"
	}
	return s
}
