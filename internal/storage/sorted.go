package storage

import (
	"math"
	"math/bits"
)

// bucketKeys is about how many keys share one directory bucket of a Sorted
// map: a lookup binary-searches one bucket, so a read costs the same at any
// map size.
const bucketKeys = 16

// Sorted is the immutable sparse map: keys in ascending order beside their
// values, found through a bucket directory. It holds the in-memory sparse
// base (SparseStore) and each MVCC view's overlay, which keeps explicit zeros
// (they shadow a nonzero base value); a base never stores one. A Sorted map
// is never mutated once built: Merge and Without return new ones, so any
// number of goroutines may read it.
//
// dir is the bucket directory of the layout's sparse key index: dir[b] is
// how many keys lie below bucket b, where a key's bucket is key >> shift, and
// the last entry is the key count. shift follows the map's length and its
// largest key, never the domain's size, so a bucket holds about bucketKeys
// keys and the directory costs about one word per bucketKeys keys.
type Sorted struct {
	keys  []int
	vals  []float64
	dir   []int
	shift uint
}

// NewSorted indexes keys (ascending, distinct, non-negative) and their
// values. It keeps both slices, which must not change after.
func NewSorted(keys []int, vals []float64) Sorted {
	m := Sorted{keys: keys, vals: vals}
	if len(keys) == 0 {
		return m
	}
	last := keys[len(keys)-1]
	if s := bits.Len(uint(last)) - bits.Len(uint(len(keys)/bucketKeys)); s > 0 {
		m.shift = uint(s)
	}
	buckets := last>>m.shift + 1
	m.dir = make([]int, buckets+1)
	b := 0
	for i, k := range keys {
		for kb := k >> m.shift; b < kb; {
			b++
			m.dir[b] = i
		}
	}
	for b < buckets {
		b++
		m.dir[b] = len(keys)
	}
	return m
}

// Len is the number of entries, explicit zeros included.
func (m *Sorted) Len() int { return len(m.keys) }

// Entry returns the i-th entry in ascending key order.
func (m *Sorted) Entry(i int) (key int, value float64) { return m.keys[i], m.vals[i] }

// Buckets returns the directory's geometry: n buckets, bucket b holding
// the keys in [b<<shift, (b+1)<<shift).
func (m *Sorted) Buckets() (n int, shift uint) { return max(len(m.dir)-1, 0), m.shift }

// Lookup returns key's value; ok is false when the map does not hold key.
func (m *Sorted) Lookup(key int) (float64, bool) {
	b := key >> m.shift
	if key < 0 || b >= len(m.dir)-1 {
		return 0, false
	}
	lo, hi := m.dir[b], m.dir[b+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch k := m.keys[mid]; {
		case k < key:
			lo = mid + 1
		case k > key:
			hi = mid
		default:
			return m.vals[mid], true
		}
	}
	return 0, false
}

// Merge returns the map with keys (ascending, distinct) set to vals: one
// linear pass over both runs, the batch winning a key both hold.
func (m *Sorted) Merge(keys []int, vals []float64) Sorted {
	n := len(m.keys) + len(keys)
	mk, mv := make([]int, 0, n), make([]float64, 0, n)
	i, j := 0, 0
	for i < len(m.keys) && j < len(keys) {
		switch a, b := m.keys[i], keys[j]; {
		case a < b:
			mk, mv = append(mk, a), append(mv, m.vals[i])
			i++
		case a > b:
			mk, mv = append(mk, b), append(mv, vals[j])
			j++
		default:
			mk, mv = append(mk, b), append(mv, vals[j])
			i++
			j++
		}
	}
	mk, mv = append(mk, m.keys[i:]...), append(mv, m.vals[i:]...)
	mk, mv = append(mk, keys[j:]...), append(mv, vals[j:]...)
	return NewSorted(mk, mv)
}

// Without returns the entries of m that folded does not hold with the same
// bits: in MVCC, what a base folded through folded's view cannot serve.
// folded's keys are a subset of m's (an overlay only grows until a fold), so
// this is one linear pass.
func (m *Sorted) Without(folded *Sorted) Sorted {
	var keys []int
	var vals []float64
	j := 0
	for i, k := range m.keys {
		for j < len(folded.keys) && folded.keys[j] < k {
			j++
		}
		if j < len(folded.keys) && folded.keys[j] == k &&
			math.Float64bits(folded.vals[j]) == math.Float64bits(m.vals[i]) {
			continue
		}
		keys, vals = append(keys, k), append(vals, m.vals[i])
	}
	return NewSorted(keys, vals)
}
