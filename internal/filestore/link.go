package filestore

import (
	"io"
	"sync"
	"time"
)

// link is a store's emulated backend link: one pacing clock shared by every
// throttled stream of the store, so concurrent transfers split the
// configured bandwidth the way flows share a real NIC. The link paces the
// store's total, not each stream — which is what a sharded deployment's
// "every backend has its own uplink" model requires: doubling the shard
// count doubles aggregate bandwidth, keeping one store's rate fixed does
// not.
type link struct {
	mu   sync.Mutex
	free time.Time // when the link next has spare capacity
}

// wait blocks until the link has carried n more bytes at rate bps.
func (l *link) wait(n, bps int64) {
	if bps <= 0 || n <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	if l.free.Before(now) {
		l.free = now
	}
	l.free = l.free.Add(time.Duration(float64(n) / float64(bps) * float64(time.Second)))
	wake := l.free
	l.mu.Unlock()
	if d := time.Until(wake); d > 0 {
		time.Sleep(d)
	}
}

// linkQuantum caps how many bytes a throttled stream moves per wait on
// the link, so concurrent streams interleave smoothly instead of trading
// whole blobs.
const linkQuantum = 16 << 10

// linkReader paces reads of a stored blob through the store's shared link
// (saves are paced on the writer side, by blobWriter); Close closes the
// blob.
type linkReader struct {
	io.ReadCloser
	l   *link
	bps int64
}

func (t *linkReader) Read(p []byte) (int, error) {
	if len(p) > linkQuantum {
		p = p[:linkQuantum]
	}
	n, err := t.ReadCloser.Read(p)
	t.l.wait(int64(n), t.bps)
	return n, err
}
