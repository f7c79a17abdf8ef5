package query

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// Batch canonicalization: a stable structural order and a fingerprint over
// it, extending the penalty.Fingerprint pattern from penalty vectors to
// whole query batches. Two batches that contain the same multiset of
// queries — however the caller ordered them — canonicalize to the same
// sequence and therefore the same fingerprint, which is what lets a
// prepared-plan registry recognize "the same batch again" across requests.
//
// Canonical order is purely structural: ranges, then terms (coefficient
// bits and powers). Labels are presentation only and excluded, so renaming
// a query does not defeat plan reuse. Duplicates are kept — a batch asking
// the same range twice legitimately has two result slots, and collapsing
// them would change penalty importances.

// compareQueries orders two queries of equal dimensionality structurally:
// range lower corner, then upper corner, then term count, then per-term
// powers and coefficient bits. It returns -1, 0 or +1. Queries comparing
// equal are structurally interchangeable (labels aside).
func compareQueries(a, b *Query) int {
	if c := compareInts(a.Range.Lo, b.Range.Lo); c != 0 {
		return c
	}
	if c := compareInts(a.Range.Hi, b.Range.Hi); c != 0 {
		return c
	}
	if len(a.Terms) != len(b.Terms) {
		if len(a.Terms) < len(b.Terms) {
			return -1
		}
		return 1
	}
	for i := range a.Terms {
		if c := compareInts(a.Terms[i].Powers, b.Terms[i].Powers); c != 0 {
			return c
		}
		ab, bb := math.Float64bits(a.Terms[i].Coeff), math.Float64bits(b.Terms[i].Coeff)
		if ab != bb {
			if ab < bb {
				return -1
			}
			return 1
		}
	}
	return 0
}

func compareInts(a, b []int) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Canonical returns the batch in canonical structural order together with
// the position map: perm[i] is the canonical position of the caller's query
// i, so a result vector computed in canonical order reads back as
// canonical[perm[i]] for request slot i. The sort is stable, so duplicate
// queries keep their relative request order and perm is a true permutation.
// The receiver is not modified; the returned batch shares the *Query
// pointers.
func (b Batch) Canonical() (Batch, []int32) {
	idx := make([]int, len(b))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(x, y int) int { return compareQueries(b[x], b[y]) })
	canonical := make(Batch, len(b))
	perm := make([]int32, len(b))
	for j, i := range idx {
		canonical[j] = b[i]
		perm[i] = int32(j)
	}
	return canonical, perm
}

// Fingerprint returns a stable identifier of the batch's structural content,
// independent of query order and labels: permutations of one batch — and
// batches containing equal duplicate queries in any arrangement — share a
// fingerprint, while structurally distinct batches get distinct ones (FNV-1a
// over the canonical encoding; collisions are possible in principle but not
// observed under the property tests). Empty batches share the fixed
// fingerprint "batch:empty".
func (b Batch) Fingerprint() string {
	canonical, _ := b.Canonical()
	return CanonicalFingerprint(canonical)
}

// CanonicalFingerprint hashes a batch that is already in canonical order
// (as returned by Canonical); callers that just canonicalized avoid a second
// sort. Calling it on a non-canonical batch produces an order-sensitive
// hash — use Fingerprint for arbitrary batches.
func CanonicalFingerprint(b Batch) string {
	if len(b) == 0 {
		return "batch:empty"
	}
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	wi := func(v int) { wu(uint64(v)) }
	// Domain sizes disambiguate equal ranges over different schemas.
	for _, n := range b[0].Schema.Sizes {
		wi(n)
	}
	wi(len(b))
	for _, q := range b {
		for i := range q.Range.Lo {
			wi(q.Range.Lo[i])
			wi(q.Range.Hi[i])
		}
		wi(len(q.Terms))
		for _, t := range q.Terms {
			wu(math.Float64bits(t.Coeff))
			for _, p := range t.Powers {
				wi(p)
			}
		}
	}
	return fmt.Sprintf("batch:%016x", h.Sum64())
}
