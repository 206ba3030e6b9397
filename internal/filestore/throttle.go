package filestore

import (
	"bytes"
	"crypto/rand"
	"io"
	"sync"
	"time"
)

func randRead(b []byte) (int, error) { return rand.Read(b) }

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// throttledReader limits the rate data can be read through it. It releases
// data in fixed quanta and sleeps when the caller gets ahead of the allowed
// rate — a simple token-bucket good enough to emulate a constrained link.
type throttledReader struct {
	r              io.Reader
	bytesPerSecond int64
	start          time.Time
	consumed       int64
}

// Throttle wraps r so that reading from the result proceeds at approximately
// bytesPerSecond. A non-positive rate returns r unchanged.
func Throttle(r io.Reader, bytesPerSecond int64) io.Reader {
	if bytesPerSecond <= 0 {
		return r
	}
	return &throttledReader{r: r, bytesPerSecond: bytesPerSecond}
}

func (t *throttledReader) Read(p []byte) (int, error) {
	if t.start.IsZero() {
		t.start = time.Now()
	}
	// Cap single reads to a 16 KiB quantum so pacing stays smooth.
	if len(p) > 16<<10 {
		p = p[:16<<10]
	}
	n, err := t.r.Read(p)
	t.consumed += int64(n)
	allowedAt := t.start.Add(time.Duration(float64(t.consumed) / float64(t.bytesPerSecond) * float64(time.Second)))
	if wait := time.Until(allowedAt); wait > 0 {
		time.Sleep(wait)
	}
	return n, err
}

type throttledReadCloser struct {
	r io.Reader
	c io.Closer
}

func (t *throttledReadCloser) Read(p []byte) (int, error) { return t.r.Read(p) }
func (t *throttledReadCloser) Close() error               { return t.c.Close() }

// link is a store's emulated backend link: one pacing clock shared by every
// throttled stream of the store, so concurrent transfers split the
// configured bandwidth the way flows share a real NIC. Where the
// per-stream Throttle above paces each reader independently (N streams
// carry N×rate in aggregate), the link paces the store's total — which is
// what a sharded deployment's "every backend has its own uplink" model
// requires: doubling the shard count doubles aggregate bandwidth, keeping
// one store's rate fixed does not.
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
// (saves are paced on the writer side, by blobWriter).
type linkReader struct {
	r   io.Reader
	l   *link
	bps int64
}

func (t *linkReader) Read(p []byte) (int, error) {
	if len(p) > linkQuantum {
		p = p[:linkQuantum]
	}
	n, err := t.r.Read(p)
	t.l.wait(int64(n), t.bps)
	return n, err
}
