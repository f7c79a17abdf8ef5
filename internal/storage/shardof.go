package storage

import "fmt"

// shardPartitionMultiplier is the Fibonacci multiplicative-hash constant of
// the shard partition function (⌊2⁶⁴/φ⌋, odd): multiplying by it and keeping
// the top bits spreads the structured key patterns of wavelet master lists
// (runs, strided levels) evenly across shards.
const shardPartitionMultiplier = 0x9E3779B97F4A7C15

// ShardOf is the packed-key → shard partition function: it returns the shard
// index of key among n shards, where n must be a power of two (the function
// panics otherwise — partitioners must agree exactly, so a silently rounded
// count would be a correctness bug). It is the single placement rule of the
// system: the distributed coordinator (internal/dist) routes batches with it,
// every shard keeps the keys it names, and a partition's table
// (NewHashStorePartition) indexes with the hash bits below the ones it spent.
func ShardOf(key, n int) int {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("storage: ShardOf shard count %d is not a power of two", n))
	}
	return int((uint64(key) * shardPartitionMultiplier) >> (64 - log2(uint64(n))))
}

func log2(n uint64) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
