package storage

import (
	"math/rand"
	"testing"
)

// TestShardOfRangeOverStructuredKeys: for every shard count, ShardOf places
// the structured key patterns of wavelet master lists — runs and strided
// levels — and random keys inside [0, n). Which shard a key lands on, and
// that the shards partition a key set, is pinned where the placement is used
// (dist's TestPartitionDisjointCompleteAndMassPreserving).
func TestShardOfRangeOverStructuredKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		check := func(key int) {
			t.Helper()
			if got := ShardOf(key, n); got < 0 || got >= n {
				t.Fatalf("n=%d key=%d: shard %d out of range", n, key, got)
			}
		}
		for key := 0; key < 4096; key++ {
			check(key)
		}
		for stride := 1; stride <= 1<<20; stride <<= 1 {
			for i := 0; i < 64; i++ {
				check(i * stride)
			}
		}
		for i := 0; i < 4096; i++ {
			check(rng.Intn(1 << 30))
		}
	}
}

// TestShardOfRejectsNonPowerOfTwo pins the panic: a silently rounded shard
// count would desynchronize partitioners.
func TestShardOfRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardOf(1, %d) did not panic", n)
				}
			}()
			ShardOf(1, n)
		}()
	}
}
