package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/penalty"
	"repro/internal/wavelet"
)

// comparatorOrder is the schedule order as the comparison sort that preceded
// the radix sort found it — importance descending, entry ascending, with
// float comparison (so −0 ties +0) — kept as the oracle.
func comparatorOrder(imps []float64) []int32 {
	type ranked struct {
		imp   float64
		entry int32
	}
	byRank := make([]ranked, len(imps))
	for i, imp := range imps {
		byRank[i] = ranked{imp, int32(i)}
	}
	slices.SortFunc(byRank, func(a, b ranked) int {
		switch {
		case a.imp > b.imp:
			return -1
		case a.imp < b.imp:
			return 1
		}
		return cmp.Compare(a.entry, b.entry)
	})
	order := make([]int32, len(imps))
	for j, r := range byRank {
		order[j] = r.entry
	}
	return order
}

// radixOrder runs scheduleOrder into a fresh order.
func radixOrder(imps []float64) []int32 {
	order := make([]int32, len(imps))
	scheduleOrder(imps, order)
	return order
}

// nanPenalty is a user penalty that answers NaN for every third entry it is
// asked about (by its first query index and coefficient) and SSE otherwise.
type nanPenalty struct{ penalty.SSE }

func (nanPenalty) Importance(idxs []int, vals []float64) float64 {
	if math.Float64bits(vals[0])%3 == 0 {
		return math.NaN()
	}
	return penalty.SSE{}.Importance(idxs, vals)
}

func (nanPenalty) Fingerprint() string { return "nan-every-third" }

// TestScheduleOrderIsStrictTotalOrder pins the radix-sorted schedule to the
// comparator it replaced, on importances built to trip an order-preserving
// key: heavy ties, both zeros, subnormals, the largest finite value and +Inf,
// at sizes around the two-halves threshold and far past it. A penalty that
// answers NaN has no comparator order to match, but must still yield a
// permutation, the same one on every build.
func TestScheduleOrderIsStrictTotalOrder(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022 / 3, math.MaxFloat64, math.Inf(1), 1, 1.5, 1e-300, 3e8, math.Nextafter(1, 2), -1, -math.MaxFloat64, math.Inf(-1), 0.25}
	rng := rand.New(rand.NewSource(3507))
	for _, n := range []int{0, 1, 2, 2047, 2048, 2049, 1 << 17} {
		for _, kind := range []string{"ties", "spread"} {
			imps := make([]float64, n)
			for i := range imps {
				if kind == "ties" {
					imps[i] = special[rng.Intn(len(special))] // ≤ 16 distinct values
				} else {
					imps[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
			}
			want, got := comparatorOrder(imps), radixOrder(imps)
			if !slices.Equal(got, want) {
				j := 0
				for got[j] == want[j] {
					j++
				}
				t.Fatalf("n=%d %s: step %d retrieves entry %d (importance %v), the comparator entry %d (importance %v)",
					n, kind, j, got[j], imps[got[j]], want[j], imps[want[j]])
			}
		}
	}

	plan, err := NewWaveletPlan(poolBatches(t, 1)[0], wavelet.Db6)
	if err != nil {
		t.Fatal(err)
	}
	first, second := buildSchedule(plan, nanPenalty{}), buildSchedule(plan, nanPenalty{})
	seen := make([]bool, plan.DistinctCoefficients())
	for _, e := range first.order {
		if seen[e] {
			t.Fatalf("NaN importances: entry %d scheduled twice", e)
		}
		seen[e] = true
	}
	if !slices.Equal(first.order, second.order) {
		t.Fatal("NaN importances: two builds scheduled differently")
	}
	nans := 0
	for _, imp := range first.importances {
		if math.IsNaN(imp) {
			nans++
		}
	}
	if nans == 0 || nans == len(first.importances) {
		t.Fatalf("NaN penalty answered NaN for %d of %d entries; the case needs both", nans, len(first.importances))
	}
	t.Logf("%d of %d importances NaN", nans, len(first.importances))
}
