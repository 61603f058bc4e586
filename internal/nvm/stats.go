package nvm

import "sync/atomic"

// Stats aggregates primitive-operation counts across all processes sharing
// a Space. All methods are safe for concurrent use. The zero value is ready
// to use.
type Stats struct {
	loads   atomic.Uint64
	stores  atomic.Uint64
	cas     atomic.Uint64
	flushes atomic.Uint64
}

// add records n primitives of one kind.
func (s *Stats) add(kind OpKind, n uint64) {
	switch kind {
	case KindLoad:
		s.loads.Add(n)
	case KindStore:
		s.stores.Add(n)
	case KindCAS:
		s.cas.Add(n)
	case KindFlush:
		s.flushes.Add(n)
	}
}

// Loads returns the number of load primitives recorded.
func (s *Stats) Loads() uint64 { return s.loads.Load() }

// Stores returns the number of store primitives recorded.
func (s *Stats) Stores() uint64 { return s.stores.Load() }

// CASes returns the number of compare-and-swap primitives recorded.
func (s *Stats) CASes() uint64 { return s.cas.Load() }

// Flushes returns the number of explicit persist primitives recorded.
func (s *Stats) Flushes() uint64 { return s.flushes.Load() }

// Total returns the total number of primitives recorded.
func (s *Stats) Total() uint64 {
	return s.Loads() + s.Stores() + s.CASes() + s.Flushes()
}
