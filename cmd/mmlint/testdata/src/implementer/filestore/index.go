package filestore

import "time"

// Lister has a method with a func-typed parameter. Index implements it
// while naming that func's parameters differently, which a match by
// printed signature would miss: the two types print differently, yet they
// are identical.
type Lister interface {
	Each(visit func(name string, size int) error) error
}

// Index implements Lister.
type Index struct{ scanned time.Time }

// Each reads the clock on the digest path: reachable from the core
// fixture's saveStateDict only through the Lister interface.
func (x *Index) Each(fn func(id string, n int) error) error {
	x.scanned = time.Now()
	return fn("blob", 0)
}
