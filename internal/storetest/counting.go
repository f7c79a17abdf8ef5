package storetest

import "repro/internal/storage"

// Counting serves a store through the bare storage.Stack — the instrument
// layer every stack builds, the one place a stack counts its retrievals —
// so a test that holds a bare store can assert what reached it ("each key
// once"). Retrievals only grows.
type Counting struct {
	storage.Store
	counts storage.Counters
}

// NewCounting wraps s with counters of its own.
func NewCounting(s storage.Store) *Counting {
	c := new(Counting)
	c.Store = storage.Stack{}.Build(s, &c.counts)
	return c
}

// Retrievals returns the keys asked of the wrapped store.
func (c *Counting) Retrievals() int64 { return c.counts.Retrievals() }
