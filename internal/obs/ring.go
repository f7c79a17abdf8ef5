package obs

import "sync"

// ring keeps the last len(buf) values added to it: the observer's run list
// is one. When full, the oldest value is overwritten.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	full  bool
	total uint64
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

// add appends v, overwriting the oldest value when full.
func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// items returns a copy of the retained values, oldest first.
func (r *ring[T]) items() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// added returns the number of values ever added, overwritten ones included.
func (r *ring[T]) added() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// retained returns the number of values currently held.
func (r *ring[T]) retained() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
