package dist

// Tests for the diagnostics extensions of the shard wire protocol: trace
// propagation over a real TCP round-trip (the coordinator's request ID must
// land in the shard process's span ring), version negotiation against
// pre-diagnostics peers on either side of the connection, and per-shard
// wire attribution in a query profile driven through the coordinator.

import (
	"context"
	"math"
	"net"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/storage"
)

// startTracedShard is startShard with a span sink installed before Serve
// (SetSpanSink must precede Serve, so the plain fixture cannot be reused).
func startTracedShard(t *testing.T, store storage.Store, meta codec.ShardMeta, sink *obs.SpanSink, maxVer uint16) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(store, meta, nil)
	srv.SetSpanSink(sink)
	if maxVer != 0 {
		srv.SetMaxWireVersion(maxVer)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

// someKeys returns up to n keys present in st, plus vals sized to match.
func someKeys(st *storage.HashStore, n int) ([]int, []float64) {
	keys := make([]int, 0, n)
	st.ForEachNonzero(func(k int, _ float64) bool {
		keys = append(keys, k)
		return len(keys) < n
	})
	return keys, make([]float64, len(keys))
}

func TestTracePropagationOverTCP(t *testing.T) {
	store := testStore(2000, 77)
	sink := obs.NewSpanSink(64)
	addr, _ := startTracedShard(t, store, codec.ShardMeta{ShardCount: 1}, sink, 0)

	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()

	const reqID = "req-trace-tcp-1"
	ctx := obs.WithRequestID(context.Background(), reqID)
	keys, vals := someKeys(store, 64)
	if err := remote.BatchGetCtx(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := remote.NegotiatedVersion(); got != 2 {
		t.Fatalf("negotiated version = %d, want 2", got)
	}
	for i, k := range keys {
		if vals[i] != storage.Get(store, k) {
			t.Fatalf("key %d: got %v, want %v", k, vals[i], storage.Get(store, k))
		}
	}

	// The request ID crossed the TCP boundary: the shard process's span ring
	// holds a batchget span under the coordinator-side ID.
	var found bool
	for _, sp := range sink.Spans() {
		if sp.Name == "dist.shard.batchget" && sp.RequestID == reqID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dist.shard.batchget span with RequestID %q in shard ring; spans: %+v", reqID, sink.Spans())
	}
}

// TestWireNegotiationWithV1Server drives a current client against a shard
// capped at the original protocol: the connection settles on v1, retrievals
// stay bit-correct, and no trace reaches the shard's ring.
func TestWireNegotiationWithV1Server(t *testing.T) {
	store := testStore(2000, 78)
	sink := obs.NewSpanSink(64)
	addr, _ := startTracedShard(t, store, codec.ShardMeta{ShardCount: 1}, sink, 1)

	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()

	ctx := obs.WithRequestID(context.Background(), "req-v1-server")
	keys, vals := someKeys(store, 64)
	if err := remote.BatchGetCtx(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := remote.NegotiatedVersion(); got != 1 {
		t.Fatalf("negotiated version = %d, want 1 against a capped server", got)
	}
	for i, k := range keys {
		if math.Float64bits(vals[i]) != math.Float64bits(storage.Get(store, k)) {
			t.Fatalf("key %d: got %v, want %v over v1", k, vals[i], storage.Get(store, k))
		}
	}
	if n := len(sink.Spans()); n != 0 {
		t.Fatalf("v1 connection recorded %d shard spans, want 0 (no trace field in v1 frames)", n)
	}
}

// TestWireNegotiationWithV1Client is the mirror case: an old client (capped
// announce) against a current server also settles on v1 and stays correct.
func TestWireNegotiationWithV1Client(t *testing.T) {
	store := testStore(2000, 79)
	sink := obs.NewSpanSink(64)
	addr, _ := startTracedShard(t, store, codec.ShardMeta{ShardCount: 1}, sink, 0)

	remote := NewRemoteStore(addr, ClientConfig{MaxWireVersion: 1})
	defer func() { _ = remote.Close() }()

	ctx := obs.WithRequestID(context.Background(), "req-v1-client")
	keys, vals := someKeys(store, 64)
	if err := remote.BatchGetCtx(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := remote.NegotiatedVersion(); got != 1 {
		t.Fatalf("negotiated version = %d, want 1 with a capped client", got)
	}
	for i, k := range keys {
		if vals[i] != storage.Get(store, k) {
			t.Fatalf("key %d: got %v, want %v over v1", k, vals[i], storage.Get(store, k))
		}
	}
	if n := len(sink.Spans()); n != 0 {
		t.Fatalf("v1 client produced %d shard spans, want 0", n)
	}
}

// TestCoordinatorProfileWireAttribution drains a profiled batch through a
// coordinator over real TCP shards and checks the per-shard rows: keys and
// response bytes attributed, remote serve time echoed from the v2 frames.
func TestCoordinatorProfileWireAttribution(t *testing.T) {
	src := testStore(4000, 80)
	const shardN = 2
	addrs := make([]string, shardN)
	remotes := make([]*RemoteStore, shardN)
	shards := make([]storage.Store, shardN)
	for i := 0; i < shardN; i++ {
		part, _, _, err := Partition(src, i, shardN, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := startShard(t, part, codec.ShardMeta{ShardIndex: i, ShardCount: shardN})
		addrs[i] = addr
		remotes[i] = NewRemoteStore(addr, ClientConfig{})
		shards[i] = remotes[i]
	}
	defer func() {
		for _, r := range remotes {
			_ = r.Close()
		}
	}()
	coord, err := NewCoordinator(shards, addrs)
	if err != nil {
		t.Fatal(err)
	}

	prof := obs.NewQueryProfile("req-profile-wire", "test")
	ctx := obs.WithProfile(context.Background(), prof)
	keys, vals := someKeys(src, 256)
	if err := coord.BatchGetCtx(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	prof.Finish()
	snap := prof.Snapshot()
	if len(snap.Shards) != shardN {
		t.Fatalf("profile has %d shard rows, want %d", len(snap.Shards), shardN)
	}
	var totalKeys int64
	for _, row := range snap.Shards {
		if row.Batches == 0 {
			t.Fatalf("shard %d: zero batches in profile", row.Shard)
		}
		if row.Addr != addrs[row.Shard] {
			t.Fatalf("shard %d: addr %q, want %q", row.Shard, row.Addr, addrs[row.Shard])
		}
		if row.Bytes <= 0 {
			t.Fatalf("shard %d: no wire bytes attributed", row.Shard)
		}
		if row.RemoteNanos <= 0 {
			t.Fatalf("shard %d: no remote serve time echoed", row.Shard)
		}
		if row.WallNanos < row.RemoteNanos {
			t.Fatalf("shard %d: wall %dns < remote %dns (echo cannot exceed round-trip)",
				row.Shard, row.WallNanos, row.RemoteNanos)
		}
		totalKeys += row.Keys
	}
	if totalKeys != int64(len(keys)) {
		t.Fatalf("shard rows attribute %d keys, want %d", totalKeys, len(keys))
	}
}
