package storage

import (
	"context"
	"testing"
)

func TestArrayStoreForEachNonzeroEarlyStop(t *testing.T) {
	s := NewArrayStore([]float64{1, 0, 2, 3})
	n := 0
	s.ForEachNonzero(func(k int, v float64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	// Full walk in ascending key order.
	var keys []int
	s.ForEachNonzero(func(k int, v float64) bool { keys = append(keys, k); return true })
	if len(keys) != 3 || keys[0] != 0 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestHashStoreForEachNonzeroEarlyStop(t *testing.T) {
	s := NewHashStore()
	s.Add(1, 1)
	s.Add(2, 2)
	s.Add(3, 3)
	n := 0
	s.ForEachNonzero(func(int, float64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestBlockStoreResetAndEnumeration(t *testing.T) {
	inner := NewArrayStore([]float64{0, 5, 0, 7})
	bs := NewBlockStore(inner, 2)
	Get(bs, 1)
	Get(bs, 3)
	if bs.BlockReads() != 2 {
		t.Fatalf("BlockReads = %d", bs.BlockReads())
	}
	bs.ResetStats()
	if bs.BlockReads() != 0 || bs.Retrievals() != 0 {
		t.Fatal("ResetStats failed")
	}
	var keys []int
	bs.ForEachNonzero(func(k int, v float64) bool { keys = append(keys, k); return true })
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 3 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestBlockStorePanicsOnNonEnumerable(t *testing.T) {
	// A store type that does not implement Enumerable.
	bs := NewBlockStore(nonEnumStore{}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bs.ForEachNonzero(func(int, float64) bool { return true })
}

type nonEnumStore struct{}

func (nonEnumStore) BatchGetCtx(context.Context, []int, []float64) error { return nil }
func (nonEnumStore) Retrievals() int64                                   { return 0 }
func (nonEnumStore) ResetStats()                                         {}
func (nonEnumStore) NonzeroCount() int                                   { return 0 }

func TestCachedStorePanicsOnNonEnumerable(t *testing.T) {
	cs, err := NewCachedStore(nonEnumStore{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cs.ForEachNonzero(func(int, float64) bool { return true })
}
