package storage

import (
	"math/rand"
	"testing"
)

// TestShardOfMatchesShardedStorePlacement pins the contract the distributed
// coordinator relies on: the exported ShardOf and ShardedStore's internal
// placement agree for every key and every shard count, so a coordinator
// routing key k to network shard ShardOf(k, n) asks exactly the node that a
// ShardedStore with n shards would have stored k in.
func TestShardOfMatchesShardedStorePlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		s := NewShardedStore(n)
		if s.NumShards() != n {
			t.Fatalf("NewShardedStore(%d) has %d shards", n, s.NumShards())
		}
		check := func(key int) {
			t.Helper()
			want := int(s.shardOf(key))
			got := ShardOf(key, n)
			if got != want {
				t.Fatalf("n=%d key=%d: ShardOf=%d, store places in %d", n, key, got, want)
			}
			if got < 0 || got >= n {
				t.Fatalf("n=%d key=%d: shard %d out of range", n, key, got)
			}
		}
		// Structured wavelet key patterns: runs and strided levels.
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

// TestShardOfStoredKeysLandInTheirShard adds coefficients to a sharded store
// and asserts each key physically lives in the shard ShardOf names.
func TestShardOfStoredKeysLandInTheirShard(t *testing.T) {
	const n = 8
	s := NewShardedStore(n)
	rng := rand.New(rand.NewSource(13))
	keys := make(map[int]struct{})
	for i := 0; i < 2000; i++ {
		k := rng.Intn(1 << 24)
		keys[k] = struct{}{}
		s.Add(k, 1+rng.Float64())
	}
	for k := range keys {
		si := ShardOf(k, n)
		s.shards[si].mu.RLock()
		v := s.shards[si].cells.get(k)
		s.shards[si].mu.RUnlock()
		if v == 0 {
			t.Fatalf("key %d not found in shard %d where ShardOf places it", k, si)
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
