package repro

import "repro/internal/storage"

// Session is an analysis session over a database: a sequence of batches
// (the coarse-synopsis-then-drill-down pattern of the paper's introduction)
// sharing one retrieval cache, so coefficients fetched for an earlier batch
// answer later batches for free. It is an Evaluator whose every retrieval
// goes through the cache, and its Retrievals count the cache's misses only —
// the session's own I/O, whatever else reads the database beside it.
//
// Any number of goroutines may evaluate through a Session; one batch at a
// time reads and fills its cache. To share I/O across *concurrent* clients
// instead of across one client's successive batches, set Coalesce on the
// Database's Stack (the HTTP server
// does this where a fetch is slow enough to be worth sharing) — the
// coalescing layer shares fetches between overlapping in-flight runs, where
// the session cache shares them across time.
type Session struct {
	evaluator
	cache *storage.CachedStore
}

// NewSession starts a session with an empty cache that never evicts. Under
// MVCC the session binds to the head snapshot at creation time: every batch
// it evaluates sees that one version, bit-stable however many writes land
// while the session lives (start a new session to observe newer versions).
// Without MVCC the database is one version for good, so a cached
// coefficient never goes stale.
func (db *Database) NewSession() *Session {
	cs := storage.NewCachedStore(db.evalStore())
	return &Session{evaluator: evaluator{db: db, store: cs}, cache: cs}
}

// Hits returns the number of retrievals served from the session cache.
func (s *Session) Hits() int64 { return s.cache.Hits() }

// CachedCoefficients returns the current cache population.
func (s *Session) CachedCoefficients() int { return s.cache.Cached() }

// ClearCache drops every cached coefficient; the counters stay.
func (s *Session) ClearCache() { s.cache.ClearCache() }
