package core

// Pipelined chain loading. Recovering a derived model walks its base chain
// through the metadata store; the documents must be fetched sequentially
// (each link's BaseID is only known once its document arrives), but what
// they reference — parameter files, model code, environment and service
// documents, dataset archives, optimizer state — is independent. Each of
// those fetches is launched as soon as its reference is known and runs
// while the walk continues, so a chain of depth k pays one round-trip
// ladder for the root documents plus the slowest fetch, not the sum of
// them all. Over the networked docdb (and under faultnet's injected
// delays) this is the difference between k serial round-trips and one.

// fetch is a single-use future: goFetch launches fn on its own goroutine
// and wait blocks until it finishes.
type fetch[T any] struct {
	val  T
	err  error
	done chan struct{}
}

// goFetch runs fn concurrently and returns a future for its result.
func goFetch[T any](fn func() (T, error)) *fetch[T] {
	f := &fetch[T]{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.val, f.err = fn()
	}()
	return f
}

// wait blocks until the fetch completes and returns its result.
func (f *fetch[T]) wait() (T, error) {
	<-f.done
	return f.val, f.err
}

// settled is wait for a caller that only needs to know the fetch is over
// and whether it failed, whatever its type.
func (f *fetch[T]) settled() error {
	<-f.done
	return f.err
}
