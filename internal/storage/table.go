package storage

// table is the open-addressing hash table under HashStore: one pointer-free
// slice of {key, value} slots, a power-of-two capacity, a multiplicative hash
// and linear probing. A lookup is one multiply and, on average, well under
// one cache line of slots; the slice is an anonymous mapping outside the Go
// heap once it outgrows a page (mapSlice), and a loader that knows the
// coefficient count allocates it exactly once (reserve).
//
// Keys are non-negative; a slot stores key+1 so that the zero slot is the
// empty slot and a fresh allocation needs no initialisation pass. Values are
// never zero: adding to zero removes the slot (backward-shift deletion, so
// there are no tombstones and every probe chain stays contiguous).
//
// Iteration order (forEach) is a fixed permutation of slot order, so it
// depends only on the capacity and on the sequence of adds — two tables built
// by the same calls enumerate identically, unlike a Go map.
//
// Any number of goroutines may get from a table; add needs exclusive access.
type table struct {
	slots []slot
	n     int
	// shift turns a hash into a slot index: 64 - log2(len(slots)).
	shift uint
}

// slot is 16 bytes: four to a cache line.
type slot struct {
	k1    uint64 // key + 1; 0 marks an empty slot
	value float64
}

const minTableSlots = 8

// maxLive is the most entries a table of the given capacity holds before it
// doubles: a load factor of 7/8. Linear probing degrades gracefully up to
// there (the Fibonacci hash spreads the dense and strided key sets of wavelet
// transforms almost evenly), and the alternative — doubling at 3/4 — costs a
// store whose count lands just above 3/4 of a power of two twice the memory.
func maxLive(capacity int) int { return capacity - capacity/8 }

// newTable returns an empty table.
func newTable() table {
	var t table
	t.resize(minTableSlots)
	return t
}

// index is the home slot of key: the top bits of the Fibonacci hash, whose
// even spacing no fixed lower window of the product has (the multiplier's
// low 48 bits, for one, resonate with runs of consecutive keys at a period
// of 7037).
func (t *table) index(key int) uint64 {
	return (uint64(key) * shardPartitionMultiplier) >> t.shift
}

// get returns the value stored at key (≥ 0), or 0.
func (t *table) get(key int) float64 {
	k1 := uint64(key) + 1
	mask := uint64(len(t.slots) - 1)
	for i := t.index(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.k1 == k1 {
			return s.value
		}
		if s.k1 == 0 {
			return 0
		}
	}
}

// add adds delta to the value at key (≥ 0), inserting the key when it is
// absent and removing it when the sum is zero.
func (t *table) add(key int, delta float64) {
	k1 := uint64(key) + 1
	mask := uint64(len(t.slots) - 1)
	i := t.index(key)
	for ; t.slots[i].k1 != 0; i = (i + 1) & mask {
		if s := &t.slots[i]; s.k1 == k1 {
			if v := s.value + delta; v != 0 {
				s.value = v
			} else {
				t.remove(i)
			}
			return
		}
	}
	if delta == 0 {
		return
	}
	if t.n >= maxLive(len(t.slots)) {
		t.resize(2 * len(t.slots))
		i = t.emptyFrom(key)
	}
	t.slots[i] = slot{k1: k1, value: delta}
	t.n++
}

// emptyFrom returns the first empty slot of key's probe chain.
func (t *table) emptyFrom(key int) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := t.index(key)
	for t.slots[i].k1 != 0 {
		i = (i + 1) & mask
	}
	return i
}

// remove empties slot i and closes the gap: each later entry of the cluster
// moves back into the hole unless that would put it before its home slot.
func (t *table) remove(i uint64) {
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].k1 != 0; j = (j + 1) & mask {
		home := t.index(int(t.slots[j].k1 - 1))
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

// slotsFor is the capacity of a table reserved for n entries: the smallest
// power of two, at least minTableSlots, that holds them within the load limit.
func slotsFor(n int) int {
	capacity := minTableSlots
	for maxLive(capacity) < n {
		capacity *= 2
	}
	return capacity
}

// reserve makes room for n entries in one allocation, so that adding up to n
// keys never rehashes.
func (t *table) reserve(n int) {
	if capacity := slotsFor(n); capacity > len(t.slots) {
		t.resize(capacity)
	}
}

// resize moves the entries into a fresh slice of the given power-of-two
// capacity, in slot order, and unmaps the old one (add has exclusive access,
// so nothing else reads it).
func (t *table) resize(capacity int) {
	old := t.slots
	t.slots = mapSlice[slot](capacity)
	t.shift = 64 - log2(uint64(capacity))
	for _, s := range old {
		if s.k1 != 0 {
			t.slots[t.emptyFrom(int(s.k1-1))] = s
		}
	}
	unmapSlice(old)
}

// lineSlots is the number of slots in one 64-byte cache line.
const lineSlots = 4

// forEach calls fn for every entry until fn returns false, and reports
// whether the walk ran to the end. It visits the table a cache line of slots
// at a time, and the lines in a fixed golden-ratio stride rather than front
// to back: slot order is hash order, and a consumer that adds what it is
// handed to another table of the same hash (a compaction target) would be
// feeding a growing table one dense hash range after
// the other — every prefix overloads the low end of the smaller table and
// insertion goes quadratic. In stride order every prefix of the walk is
// spread evenly over the hash range.
func (t *table) forEach(fn func(key int, value float64) bool) bool {
	lines := uint64(len(t.slots) / lineSlots)
	stride := uint64(shardPartitionMultiplier)>>(t.shift+2) | 1 // ≈ lines/φ; odd, so a permutation
	for i, line := uint64(0), uint64(0); i < lines; i, line = i+1, (line+stride)&(lines-1) {
		for _, s := range t.slots[line*lineSlots:][:lineSlots] {
			if s.k1 != 0 && !fn(int(s.k1-1), s.value) {
				return false
			}
		}
	}
	return true
}
