// Package filestore is an mmlint fixture: an interface and its implementer
// in one package, where a method signature mentions a type of that package.
// Store implements Blobs for a caller in another package only if that
// caller sees the Stats object Store's signature names: the loader checks
// the whole module from source, so there is one.
package filestore

import "time"

// Stats is the package-local type in a Blobs signature.
type Stats struct{ Blobs int }

// Blobs is what the core fixture's digest entry point writes through.
type Blobs interface {
	SaveAs(id string, b []byte) error
	Stats() (Stats, error)
}

// Store implements Blobs.
type Store struct{ saved time.Time }

// SaveAs reads the clock on the digest path: reachable from the core
// fixture's saveStateDict only through the interface.
func (s *Store) SaveAs(name string, b []byte) error {
	s.saved = time.Now()
	return nil
}

// Stats implements Blobs.
func (s *Store) Stats() (Stats, error) { return Stats{}, nil }

// Sizer has SaveAs but not Stats: not a Blobs, so its clock read is not on
// the digest path.
type Sizer struct{ saved time.Time }

// SaveAs has the interface method's name and signature.
func (z *Sizer) SaveAs(id string, b []byte) error {
	z.saved = time.Now()
	return nil
}
