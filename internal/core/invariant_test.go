package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/penalty"
)

// recordingStore remembers which keys were fetched and with what values.
type recordingStore struct {
	cells   []float64
	fetched map[int]float64
	count   int64
}

func newRecordingStore(cells []float64) *recordingStore {
	return &recordingStore{cells: cells, fetched: map[int]float64{}}
}

func (s *recordingStore) BatchGetCtx(_ context.Context, keys []int, dst []float64) error {
	for i, key := range keys {
		s.count++
		dst[i] = s.cells[key]
		s.fetched[key] = dst[i]
	}
	return nil
}
func (s *recordingStore) Retrievals() int64 { return s.count }
func (s *recordingStore) ResetStats()       { s.count = 0 }
func (s *recordingStore) NonzeroCount() int { return len(s.cells) }

// TestEstimatesEqualRetrievedDotProduct verifies the core invariant of the
// progressive estimate: at every step, est_i = Σ_{ξ retrieved} q̂_i[ξ]·Δ̂[ξ],
// recomputed independently from the recording store and the raw vectors.
func TestEstimatesEqualRetrievedDotProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	for trial := 0; trial < 10; trial++ {
		n := 64
		vectors := tinyBatch(rng, 4, n)
		plan, err := NewPlan(vectors, nil)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]float64, n)
		for i := range cells {
			cells[i] = rng.NormFloat64()
		}
		store := newRecordingStore(cells)
		run := NewRun(plan, penalty.SSE{}, store)
		for !run.Done() {
			run.StepN(1 + rng.Intn(3))
			for qi, vec := range vectors {
				var want float64
				for k, c := range vec {
					if v, ok := store.fetched[k]; ok {
						want += c * v
					}
				}
				got := run.Estimates()[qi]
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d query %d after %d steps: est %g, dot over retrieved %g",
						trial, qi, run.Retrieved(), got, want)
				}
			}
		}
	}
}

// TestRetrievalNeverRepeats verifies each distinct key is fetched exactly
// once by a progressive run.
func TestRetrievalNeverRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	vectors := tinyBatch(rng, 5, 48)
	plan, err := NewPlan(vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := newRecordingStore(make([]float64, 48))
	run := NewRun(plan, penalty.SSE{}, store)
	run.RunToCompletion()
	if int(store.count) != len(store.fetched) {
		t.Fatalf("%d retrievals for %d distinct keys", store.count, len(store.fetched))
	}
	if len(store.fetched) != plan.DistinctCoefficients() {
		t.Fatalf("fetched %d keys, plan has %d", len(store.fetched), plan.DistinctCoefficients())
	}
}
