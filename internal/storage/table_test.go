package storage

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// checkTable verifies the table against the reference map: the same key set
// and values through get, n and forEach, and the probing invariant — from an
// entry's home slot to the slot it sits in there is no empty slot, which is
// exactly what backward-shift deletion has to preserve.
func checkTable(t *testing.T, tb *table, ref map[int]float64) {
	t.Helper()
	if tb.n != len(ref) {
		t.Fatalf("n = %d, reference holds %d", tb.n, len(ref))
	}
	if live := maxLive(len(tb.slots)); tb.n > live {
		t.Fatalf("%d entries in %d slots: over the load limit of %d", tb.n, len(tb.slots), live)
	}
	for k, v := range ref {
		if got := tb.get(k); got != v {
			t.Fatalf("get(%d) = %v, reference %v", k, got, v)
		}
	}
	seen := 0
	tb.forEach(func(k int, v float64) bool {
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("forEach yields (%d, %v); reference has (%v, %v)", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("forEach visited %d entries, reference holds %d", seen, len(ref))
	}
	mask := uint64(len(tb.slots) - 1)
	for i, s := range tb.slots {
		if s.k1 == 0 {
			continue
		}
		if s.value == 0 {
			t.Fatalf("slot %d stores a zero value for key %d", i, s.k1-1)
		}
		for j := tb.index(int(s.k1 - 1)); j != uint64(i); j = (j + 1) & mask {
			if tb.slots[j].k1 == 0 {
				t.Fatalf("key %d sits in slot %d but slot %d of its probe chain is empty", s.k1-1, i, j)
			}
		}
	}
}

// tableKeyPool is the key set of the model test: the two ends of the key
// space, a dense run, a power-of-two stride, and the strides of a wavelet
// transform's levels over a 2²⁰ domain (level j holds keys that are multiples
// of 2^j, fewer of them the higher the level).
func tableKeyPool() []int {
	keys := []int{0, 1, math.MaxInt, math.MaxInt - 1}
	for k := 5000; k < 5600; k++ {
		keys = append(keys, k)
	}
	for i := 1; i <= 300; i++ {
		keys = append(keys, i<<20)
	}
	for level := 1; level <= 16; level++ {
		for i := 0; i < 40; i++ {
			keys = append(keys, (2*i+1)<<level)
		}
	}
	return keys
}

// TestTableAgainstMap runs seeded scripts of add, add-to-zero and get against
// a map[int]float64, through enough inserts to double at least four times
// and enough deletes to exercise backward shifts in full tables.
func TestTableAgainstMap(t *testing.T) {
	pool := tableKeyPool()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := newTable()
		ref := make(map[int]float64)
		doublings, capacity := 0, len(tb.slots)
		for op := 0; op < 12000; op++ {
			k := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(10); {
			case r < 5: // add a nonzero delta (may cancel an earlier one)
				d := float64(rng.Intn(5) - 2)
				tb.add(k, d)
				if v := ref[k] + d; v == 0 {
					delete(ref, k)
				} else {
					ref[k] = v
				}
			case r < 8: // add to zero: remove if present
				tb.add(k, -ref[k])
				delete(ref, k)
			default:
				if got := tb.get(k); got != ref[k] {
					t.Fatalf("seed %d op %d: get(%d) = %v, reference %v", seed, op, k, got, ref[k])
				}
			}
			if len(tb.slots) != capacity {
				doublings, capacity = doublings+1, len(tb.slots)
			}
			if op%500 == 0 {
				checkTable(t, &tb, ref)
			}
		}
		checkTable(t, &tb, ref)
		if doublings < 4 {
			t.Fatalf("seed %d: table doubled %d times, the script must cross at least 4", seed, doublings)
		}
		// Drain it: every delete is a backward shift in a loaded table.
		for k, v := range ref {
			tb.add(k, -v)
			delete(ref, k)
			if len(ref)%97 == 0 {
				checkTable(t, &tb, ref)
			}
		}
		checkTable(t, &tb, ref)
	}
}

// TestTableReserve pins the loader's contract: after reserve(n), n adds never
// move the table.
func TestTableReserve(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 1000, 7168, 7169} {
		tb := newTable()
		tb.reserve(n)
		capacity := len(tb.slots)
		for k := 0; k < n; k++ {
			tb.add(k*3, 1)
		}
		if len(tb.slots) != capacity {
			t.Fatalf("reserve(%d) allocated %d slots but %d adds grew the table to %d", n, capacity, n, len(tb.slots))
		}
		if n > minTableSlots && maxLive(capacity/2) >= n {
			t.Fatalf("reserve(%d) allocated %d slots where %d hold it", n, capacity, capacity/2)
		}
	}
}

// displacements returns the mean and largest distance between an entry's
// home slot and the slot it occupies.
func displacements(tb *table) (mean float64, worst uint64) {
	mask := uint64(len(tb.slots) - 1)
	var total uint64
	for i, s := range tb.slots {
		if s.k1 == 0 {
			continue
		}
		d := (uint64(i) - tb.index(int(s.k1-1))) & mask
		total += d
		worst = max(worst, d)
	}
	return float64(total) / float64(max(tb.n, 1)), worst
}

// TestTableWalkOrderSpreadsOverHashRange pins why forEach does not walk front
// to back: a consumer that adds what it is handed to a growing table of the
// same hash must see every prefix of the walk spread over the whole hash
// range, or the smaller table overloads at its low end and the copy goes
// quadratic (a 10⁵-key copy took 0.8 s in slot order against 8 ms).
func TestTableWalkOrderSpreadsOverHashRange(t *testing.T) {
	tb := newTable()
	for k := 0; k < 100_000; k++ {
		tb.add(k, 1)
	}
	const buckets = 16
	var hist [buckets]int
	seen := 0
	tb.forEach(func(k int, _ float64) bool {
		hist[tb.index(k)*buckets/uint64(len(tb.slots))]++
		seen++
		return seen < tb.n/8
	})
	for b, c := range hist {
		if want := seen / buckets; c < want/2 || c > 2*want {
			t.Fatalf("first eighth of the walk: %d of %d keys in hash range %d/%d, want about %d: %v", c, seen, b, buckets, want, hist)
		}
	}

	// And the copy it protects, into a table that grows from empty.
	src := NewHashStore()
	for k := 0; k < 1<<17; k++ {
		src.Add(k, 1)
	}
	dst := NewHashStore()
	src.Walk(func(k int, v float64) bool {
		dst.Add(k, v)
		return true
	})
	if mean, _ := displacements(&dst.cells); mean > 2 {
		t.Fatalf("copied table: mean displacement %.2f", mean)
	}
}

// TestEnumerationIsDeterministic: two stores built by the same adds enumerate
// in the same order (a Go map would not).
func TestEnumerationIsDeterministic(t *testing.T) {
	build := func() []int {
		s := NewHashStore()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 5000; i++ {
			s.Add(rng.Intn(1<<22), rng.NormFloat64())
		}
		var order []int
		s.Walk(func(k int, _ float64) bool {
			order = append(order, k)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("enumerations differ in length: %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("enumerations differ at position %d: key %d and key %d", i, a[i], b[i])
		}
	}
}

// TestNonzeroCountAndEnumerationAgree covers the public face of the counters
// after a mix of inserts and cancellations.
func TestNonzeroCountAndEnumerationAgree(t *testing.T) {
	s := NewHashStore()
	rng := rand.New(rand.NewSource(21))
	ref := make(map[int]float64)
	for i := 0; i < 20_000; i++ {
		k, d := rng.Intn(4096), float64(rng.Intn(3)-1)
		s.Add(k, d)
		if v := ref[k] + d; v == 0 {
			delete(ref, k)
		} else {
			ref[k] = v
		}
	}
	seen := 0
	s.Walk(func(k int, v float64) bool {
		if ref[k] != v {
			t.Fatalf("enumerates (%d, %v), reference %v", k, v, ref[k])
		}
		seen++
		return true
	})
	if seen != len(ref) || s.NonzeroCount() != len(ref) {
		t.Fatalf("enumerated %d, NonzeroCount %d, reference %d", seen, s.NonzeroCount(), len(ref))
	}
	keys := make([]int, 4096)
	for k := range keys {
		keys[k] = k
	}
	dst := make([]float64, len(keys))
	if err := s.BatchGetCtx(context.Background(), keys, dst); err != nil {
		t.Fatal(err)
	}
	for k, v := range dst {
		if v != ref[k] {
			t.Fatalf("key %d reads %v, reference %v", k, v, ref[k])
		}
	}
}
