package mvcc

import (
	"math"
	"math/bits"
)

// bucketKeys is about how many overlay keys share one directory bucket: a
// lookup binary-searches one bucket, so a read costs the same at any overlay
// size.
const bucketKeys = 16

// overlay is one view's writes above its base: every key an applied batch
// set since the base was folded, in ascending order, beside its newest
// absolute value. Explicit zeros stay: they shadow a nonzero base value (a
// delete). Storing absolutes makes a read one probe and compaction a verbatim
// copy, bit-identical by construction. An overlay is never mutated after its
// view is published; Apply and Compact build a new one.
//
// dir is the bucket directory of the layout's sparse key index: dir[b] is
// how many keys lie below bucket b, where a key's bucket is key >> shift, and
// the last entry is len(keys). shift follows the overlay's length and its
// largest key, never the domain's size, so a bucket holds about bucketKeys
// keys and the directory costs about one word per bucketKeys keys.
type overlay struct {
	keys  []int
	vals  []float64
	dir   []int
	shift uint
}

// newOverlay indexes keys (ascending, distinct) and their values.
func newOverlay(keys []int, vals []float64) overlay {
	o := overlay{keys: keys, vals: vals}
	if len(keys) == 0 {
		return o
	}
	last := keys[len(keys)-1]
	if s := bits.Len(uint(last)) - bits.Len(uint(len(keys)/bucketKeys)); s > 0 {
		o.shift = uint(s)
	}
	buckets := last>>o.shift + 1
	o.dir = make([]int, buckets+1)
	b := 0
	for i, k := range keys {
		for kb := k >> o.shift; b < kb; {
			b++
			o.dir[b] = i
		}
	}
	for b < buckets {
		b++
		o.dir[b] = len(keys)
	}
	return o
}

// lookup returns key's newest value; ok is false when the base must be
// consulted.
func (o *overlay) lookup(key int) (float64, bool) {
	b := key >> o.shift
	if key < 0 || b >= len(o.dir)-1 {
		return 0, false
	}
	lo, hi := o.dir[b], o.dir[b+1]
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch k := o.keys[m]; {
		case k < key:
			lo = m + 1
		case k > key:
			hi = m
		default:
			return o.vals[m], true
		}
	}
	return 0, false
}

// merge returns the overlay with keys (ascending, distinct) set to vals: one
// linear pass over both runs, the batch winning a key both hold.
func (o *overlay) merge(keys []int, vals []float64) overlay {
	n := len(o.keys) + len(keys)
	mk, mv := make([]int, 0, n), make([]float64, 0, n)
	i, j := 0, 0
	for i < len(o.keys) && j < len(keys) {
		switch a, b := o.keys[i], keys[j]; {
		case a < b:
			mk, mv = append(mk, a), append(mv, o.vals[i])
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
	mk, mv = append(mk, o.keys[i:]...), append(mv, o.vals[i:]...)
	mk, mv = append(mk, keys[j:]...), append(mv, vals[j:]...)
	return newOverlay(mk, mv)
}

// without returns the entries of o that folded does not hold with the same
// bits: what a base folded through folded's view cannot serve. folded's keys
// are a subset of o's (an overlay only grows until a fold), so this is one
// linear pass.
func (o *overlay) without(folded *overlay) overlay {
	var keys []int
	var vals []float64
	j := 0
	for i, k := range o.keys {
		for j < len(folded.keys) && folded.keys[j] < k {
			j++
		}
		if j < len(folded.keys) && folded.keys[j] == k &&
			math.Float64bits(folded.vals[j]) == math.Float64bits(o.vals[i]) {
			continue
		}
		keys, vals = append(keys, k), append(vals, o.vals[i])
	}
	return newOverlay(keys, vals)
}
