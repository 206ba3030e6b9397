package evalflow

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/docdb"
	"repro/internal/faultnet"
	"repro/internal/shard"
)

// StoreProvider yields a Stores handle per actor, plus a cleanup function.
// A local provider returns one shared handle; a distributed provider dials
// the metadata servers per node like the paper's separate machines.
type StoreProvider func() (core.Stores, func(), error)

// LocalProvider wraps a single shared Stores handle.
func LocalProvider(s core.Stores) StoreProvider {
	return func() (core.Stores, func(), error) {
		return s, func() {}, nil
	}
}

// ShardedProvider starts an in-process cluster — one document-database
// server over a MemStore and one file-store directory under filesDir per
// shard — and returns a StoreProvider that dials every server through a
// pool of poolSize connections per actor, routing with a consistent-hash
// ring (internal/shard), plus a cleanup function for the servers. One shard
// (shards <= 1) is the paper's deployment: a dedicated MongoDB machine and
// a shared file system; N shards scale both out, transparently to the save
// services.
//
// With faults set, every metadata connection misbehaves on its
// deterministic schedule and the clients retry through it (tight backoff,
// generous attempt budget — the injected faults are frequent by design).
// The stored artifacts must come out byte-identical to a fault-free run;
// the fault-tolerance tests assert exactly that.
func ShardedProvider(filesDir string, shards, poolSize int, faults *faultnet.Config) (StoreProvider, func(), error) {
	var opts docdb.ClientOptions
	if faults != nil {
		opts = docdb.ClientOptions{
			OpTimeout:    5 * time.Second,
			MaxRetries:   10,
			RetryBackoff: time.Millisecond,
			MaxBackoff:   20 * time.Millisecond,
			Dialer:       faultnet.Dialer(*faults),
		}
	}
	var srvs []*docdb.Server
	stop := func() {
		for _, s := range srvs {
			s.Close()
		}
	}
	addrs := make([]string, max(shards, 1))
	dirs := make([]string, len(addrs))
	for i := range addrs {
		srv, err := docdb.NewServer(docdb.NewMemStore(), "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srvs = append(srvs, srv)
		addrs[i] = srv.Addr()
		dirs[i] = filepath.Join(filesDir, fmt.Sprintf("shard%d", i))
	}
	files, err := shard.OpenFiles(dirs)
	if err != nil {
		stop()
		return nil, nil, err
	}
	provider := func() (core.Stores, func(), error) {
		meta, err := shard.DialMeta(addrs, poolSize, opts)
		if err != nil {
			return core.Stores{}, nil, err
		}
		// Closing the sharded store closes every pool; the servers belong
		// to the provider-level cleanup.
		return core.Stores{Meta: meta, Files: files}, func() { meta.Close() }, nil
	}
	return provider, stop, nil
}
