package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/storetest"
)

// testStore builds a deterministic sparse coefficient store with signed
// values (mass needs both signs to catch sign bugs).
func testStore(n int, seed int64) *storetest.Map {
	rng := rand.New(rand.NewSource(seed))
	st := storetest.NewMap()
	for i := 0; i < n; i++ {
		k := rng.Intn(1 << 20)
		v := rng.NormFloat64() * 100
		if v != 0 {
			st.Add(k, v)
		}
	}
	return st
}

// startShard serves store on a loopback listener, returning the address and
// a stopper. meta defaults describe a 1-of-1 deployment unless overridden.
func startShard(t *testing.T, store storage.Store, meta codec.ShardMeta) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(store, meta, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

// TestPartitionDisjointCompleteAndMassPreserving: ShardOf gives every
// nonzero key of the source to exactly one shard, so the shards' owned keys
// cover the view once between them.
func TestPartitionDisjointCompleteAndMassPreserving(t *testing.T) {
	src := testStore(5000, 1)
	const shards = 4
	owned := make([]int, shards)
	src.Walk(func(k int, _ float64) bool {
		owned[storage.ShardOf(k, shards)]++
		return true
	})
	total := 0
	for i, n := range owned {
		if n == 0 {
			t.Fatalf("shard %d owns no key of %d", i, src.NonzeroCount())
		}
		total += n
	}
	if total != src.NonzeroCount() {
		t.Fatalf("shards own %d keys, source has %d", total, src.NonzeroCount())
	}
}

func TestRemoteStoreBitIdentityZeroFaults(t *testing.T) {
	local := testStore(2000, 2)
	addr, _ := startShard(t, local, codec.ShardMeta{
		Names: []string{"x"}, Sizes: []int{1 << 20}, FilterName: "Haar",
		TupleCount: 2000, ShardCount: 1, Nonzero: int64(local.NonzeroCount()),
	})
	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()

	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(300)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(1 << 20) // mix of present and absent keys
		}
		want := make([]float64, n)
		got := make([]float64, n)
		storage.BatchGet(local, keys, want)
		if err := remote.BatchGetCtx(ctx, keys, got); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range keys {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d key %d: %g over the wire, %g locally", round, keys[i], got[i], want[i])
			}
		}
	}
	// Single-key path and the Meta round-trip.
	var anyKey int
	local.Walk(func(k int, _ float64) bool { anyKey = k; return false })
	v, err := storage.GetCtx(ctx, remote, anyKey)
	if err != nil || v != storage.Get(local, anyKey) {
		t.Fatalf("GetCtx(%d) = %g, %v; want %g", anyKey, v, err, storage.Get(local, anyKey))
	}
	m, err := remote.Meta(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nonzero != int64(local.NonzeroCount()) || m.FilterName != "Haar" {
		t.Fatalf("meta mangled: %+v", m)
	}
	if remote.NonzeroCount() != local.NonzeroCount() {
		t.Fatalf("NonzeroCount %d, want %d", remote.NonzeroCount(), local.NonzeroCount())
	}
}

func TestRemoteStorePartialBatchFailure(t *testing.T) {
	base := testStore(2000, 4)
	cfg := storage.FaultConfig{ErrorRate: 0.3, Seed: 9}
	addr, _ := startShard(t, storage.NewFaultStore(base, cfg), codec.ShardMeta{ShardCount: 1})
	// The same schedule locally decides which keys must fail: rate faults
	// are a pure function of (seed, key).
	oracle := storage.NewFaultStore(base, cfg)
	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()

	rng := rand.New(rand.NewSource(5))
	keys := make([]int, 500)
	for i := range keys {
		keys[i] = rng.Intn(1 << 20)
	}
	dst := make([]float64, len(keys))
	err := remote.BatchGetCtx(context.Background(), keys, dst)
	var be *storage.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *storage.BatchError, got %v", err)
	}
	failed := make(map[int]bool)
	last := -1
	for _, ke := range be.Failed {
		if ke.Index <= last {
			t.Fatalf("failure indices not ascending: %d after %d", ke.Index, last)
		}
		last = ke.Index
		if keys[ke.Index] != ke.Key {
			t.Fatalf("failure at %d reports key %d, batch has %d", ke.Index, ke.Key, keys[ke.Index])
		}
		if !errors.Is(ke.Err, ErrShard) {
			t.Fatalf("per-key cause %v does not match ErrShard", ke.Err)
		}
		failed[ke.Index] = true
	}
	if len(failed) == 0 {
		t.Fatal("no failures at 30% error rate over 500 keys")
	}
	for i, k := range keys {
		_, oErr := storage.GetCtx(context.Background(), oracle, k)
		if (oErr != nil) != failed[i] {
			t.Fatalf("key %d: oracle fails=%v, wire fails=%v", k, oErr != nil, failed[i])
		}
		if !failed[i] && math.Float64bits(dst[i]) != math.Float64bits(storage.Get(base, k)) {
			t.Fatalf("unfailed key %d: %g over the wire, %g locally", k, dst[i], storage.Get(base, k))
		}
	}
}

func TestRemoteStoreCancellationMidFlight(t *testing.T) {
	base := testStore(100, 6)
	slow := storage.NewFaultStore(base, storage.FaultConfig{DelayRate: 1, Delay: 30 * time.Second})
	addr, _ := startShard(t, slow, codec.ShardMeta{ShardCount: 1})
	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	dst := make([]float64, 3)
	err := remote.BatchGetCtx(ctx, []int{1, 2, 3}, dst)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the injected delay leaked through", elapsed)
	}
}

// TestRemoteStoreCancelAfterResponseKeepsConnection pins the watcher
// ordering in roundTrip: a context cancelled right after a successful round
// trip must not reach the connection, which by then is back in the pool with
// its deadline cleared. If the cancellation watcher could still fire, it
// would leave a past deadline behind and the next request on the pooled
// connection would fail as a shard fault.
func TestRemoteStoreCancelAfterResponseKeepsConnection(t *testing.T) {
	local := testStore(200, 6)
	addr, _ := startShard(t, local, codec.ShardMeta{
		Names: []string{"x"}, Sizes: []int{1 << 20}, FilterName: "Haar",
		TupleCount: 200, ShardCount: 1, Nonzero: int64(local.NonzeroCount()),
	})
	// One pooled connection, so every request reuses the previous one's.
	remote := NewRemoteStore(addr, ClientConfig{PoolSize: 1})
	defer func() { _ = remote.Close() }()
	keys, dst := []int{1, 2, 3}, make([]float64, 3)
	for i := 0; i < 3000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := remote.BatchGetCtx(ctx, keys, dst)
		cancel()
		if err != nil {
			t.Fatalf("request %d on the pooled connection: %v", i, err)
		}
	}
}

func TestRemoteStoreDisconnectReconnect(t *testing.T) {
	local := testStore(500, 7)
	meta := codec.ShardMeta{ShardCount: 1}
	srv := NewServer(local, meta, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = srv.Serve(ln) }()

	remote := NewRemoteStore(addr, ClientConfig{DialTimeout: time.Second, RequestTimeout: 2 * time.Second})
	defer func() { _ = remote.Close() }()
	var anyKey int
	local.Walk(func(k int, _ float64) bool { anyKey = k; return false })
	if v, err := storage.GetCtx(context.Background(), remote, anyKey); err != nil || v != storage.Get(local, anyKey) {
		t.Fatalf("before disconnect: %g, %v", v, err)
	}

	// Kill the shard: the pooled connection is dead and redials refuse.
	_ = srv.Close()
	if _, err := storage.GetCtx(context.Background(), remote, anyKey); !errors.Is(err, ErrShard) {
		t.Fatalf("dead shard returned %v, want ErrShard", err)
	}

	// Rebind the same address (listeners set SO_REUSEADDR) and recover: the
	// client drops broken connections, so the next call dials fresh.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv2 := NewServer(local, meta, nil)
	go func() { _ = srv2.Serve(ln2) }()
	defer func() { _ = srv2.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := storage.GetCtx(context.Background(), remote, anyKey)
		if err == nil {
			if v != storage.Get(local, anyKey) {
				t.Fatalf("after reconnect: %g, want %g", v, storage.Get(local, anyKey))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// downStore is a Store whose every retrieval fails outright — the
// in-process stand-in for a dead shard.
type downStore struct{ err error }

func (d downStore) NonzeroCount() int { return 0 }
func (d downStore) BatchGetCtx(_ context.Context, keys []int, _ []float64) error {
	return d.err
}

// ownerOnly is shard index of count over the whole view, as
// repro.NewShardServer serves it, and reports a key routed to it that it
// does not own: answered from the view, a misrouted key would still read right.
type ownerOnly struct {
	storage.Store
	t            *testing.T
	index, count int
}

func (o ownerOnly) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	for _, k := range keys {
		if owner := storage.ShardOf(k, o.count); owner != o.index {
			o.t.Errorf("key %d routed to shard %d, ShardOf says %d", k, o.index, owner)
		}
	}
	return o.Store.BatchGetCtx(ctx, keys, dst)
}

func TestCoordinatorMergesAndDegrades(t *testing.T) {
	full := testStore(4000, 8)
	const n = 4
	shards := make([]storage.Store, n)
	for i := 0; i < n; i++ {
		shards[i] = ownerOnly{full, t, i, n}
	}
	coord, err := NewCoordinator(shards, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	keys := make([]int, 800)
	for i := range keys {
		keys[i] = rng.Intn(1 << 20)
	}
	dst := make([]float64, len(keys))
	if err := coord.BatchGetCtx(context.Background(), keys, dst); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if math.Float64bits(dst[i]) != math.Float64bits(storage.Get(full, k)) {
			t.Fatalf("key %d: coordinator %g, source %g", k, dst[i], storage.Get(full, k))
		}
	}
	for i, h := range coord.Health() {
		if h.Shard != i || h.Requests == 0 || h.Errors != 0 || h.LastSeenUnix == 0 {
			t.Fatalf("healthy shard %d ledger: %+v", i, h)
		}
	}

	// Shard 2 dies: exactly its keys degrade, everything else stays valid.
	downErr := fmt.Errorf("%w: connection refused", ErrShard)
	shards[2] = downStore{err: downErr}
	coord2, err := NewCoordinator(shards, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	dst2 := make([]float64, len(keys))
	err = coord2.BatchGetCtx(context.Background(), keys, dst2)
	var be *storage.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("dead shard: want *storage.BatchError, got %v", err)
	}
	failed := make(map[int]bool)
	last := -1
	for _, ke := range be.Failed {
		if ke.Index <= last {
			t.Fatalf("merged failures not ascending: %d after %d", ke.Index, last)
		}
		last = ke.Index
		if storage.ShardOf(ke.Key, n) != 2 {
			t.Fatalf("key %d failed but lives on shard %d", ke.Key, storage.ShardOf(ke.Key, n))
		}
		if !errors.Is(ke.Err, ErrShard) {
			t.Fatalf("cause %v does not match ErrShard", ke.Err)
		}
		failed[ke.Index] = true
	}
	for i, k := range keys {
		if storage.ShardOf(k, n) == 2 {
			if !failed[i] {
				t.Fatalf("key %d on the dead shard did not degrade", k)
			}
			continue
		}
		if failed[i] {
			t.Fatalf("key %d on a live shard degraded", k)
		}
		if math.Float64bits(dst2[i]) != math.Float64bits(storage.Get(full, k)) {
			t.Fatalf("live key %d: %g, want %g", k, dst2[i], storage.Get(full, k))
		}
	}
	h := coord2.Health()
	if h[2].Errors == 0 || h[2].DegradedKeys == 0 || h[2].LastError == "" {
		t.Fatalf("dead shard ledger unmarked: %+v", h[2])
	}
	if h[0].Errors != 0 {
		t.Fatalf("live shard ledger marked: %+v", h[0])
	}
}

func TestCoordinatorCancellationBeatsDegradation(t *testing.T) {
	// A cancelled caller must see ctx.Err(), not a degraded-batch report:
	// per the Store contract nothing in dst may be trusted.
	shards := make([]storage.Store, 2)
	for i := range shards {
		shards[i] = downStore{err: context.Canceled}
	}
	coord, err := NewCoordinator(shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, 4)
	if err := coord.BatchGetCtx(ctx, []int{1, 2, 3, 4}, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fan-out returned %v, want context.Canceled", err)
	}
}

func TestCoordinatorRejectsBadShardCounts(t *testing.T) {
	if _, err := NewCoordinator(nil, nil); err == nil {
		t.Fatal("0 shards accepted")
	}
	three := []storage.Store{downStore{}, downStore{}, downStore{}}
	if _, err := NewCoordinator(three, nil); err == nil {
		t.Fatal("3 shards accepted")
	}
	if _, err := NewCoordinator(three[:2], []string{"only-one"}); err == nil {
		t.Fatal("addr/shard count mismatch accepted")
	}
}

func TestValidateMetasCatchesDeploymentMismatches(t *testing.T) {
	mk := func() *codec.ShardMeta {
		return &codec.ShardMeta{
			Names: []string{"x", "y"}, Sizes: []int{64, 64},
			Windows:    [][2]float64{{0, 1}, {0, 1}},
			FilterName: "Db4", TupleCount: 100, ShardCount: 2, Nonzero: 10, Mass: 1,
		}
	}
	good := []*codec.ShardMeta{mk(), mk()}
	good[1].ShardIndex = 1
	if err := ValidateMetas(good); err != nil {
		t.Fatalf("coherent metas rejected: %v", err)
	}
	cases := map[string]func(m []*codec.ShardMeta){
		"wrong shard count":  func(m []*codec.ShardMeta) { m[1].ShardCount = 4 },
		"wrong index":        func(m []*codec.ShardMeta) { m[1].ShardIndex = 0 },
		"filter mismatch":    func(m []*codec.ShardMeta) { m[1].FilterName = "Haar" },
		"tuple mismatch":     func(m []*codec.ShardMeta) { m[1].TupleCount = 99 },
		"dimension mismatch": func(m []*codec.ShardMeta) { m[1].Sizes[0] = 128 },
		"window mismatch":    func(m []*codec.ShardMeta) { m[1].Windows[0] = [2]float64{5, 6} },
		"nonzero mismatch":   func(m []*codec.ShardMeta) { m[1].Nonzero = 11 },
		"mass bits mismatch": func(m []*codec.ShardMeta) { m[1].Mass = math.Nextafter(m[1].Mass, 2) },
	}
	for name, mutate := range cases {
		bad := []*codec.ShardMeta{mk(), mk()}
		bad[1].ShardIndex = 1
		mutate(bad)
		if err := ValidateMetas(bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if err := ValidateMetas(nil); err == nil {
		t.Fatal("empty meta set accepted")
	}
}

func TestRetryStoreStacksOnRemoteStore(t *testing.T) {
	// The point of RemoteStore being a storage.Store: the existing retry
	// layer wraps it unchanged and absorbs transient shard faults.
	base := testStore(500, 11)
	flaky := storage.NewFaultStore(base, storage.FaultConfig{ErrorEvery: 3})
	addr, _ := startShard(t, flaky, codec.ShardMeta{ShardCount: 1})
	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()
	// Every retry round clears ~2/3 of the still-failing keys (the fault
	// fires every 3rd retrieval), so draining 200 keys needs ~log₃ 200 + 1
	// rounds; 10 attempts gives comfortable headroom.
	retried := storage.NewRetryStore(remote, storage.RetryConfig{MaxAttempts: 10, BaseDelay: time.Millisecond})

	keys := make([]int, 200)
	rng := rand.New(rand.NewSource(12))
	for i := range keys {
		keys[i] = rng.Intn(1 << 20)
	}
	dst := make([]float64, len(keys))
	if err := retried.BatchGetCtx(context.Background(), keys, dst); err != nil {
		t.Fatalf("retries did not absorb every-3rd faults: %v", err)
	}
	for i, k := range keys {
		if math.Float64bits(dst[i]) != math.Float64bits(storage.Get(base, k)) {
			t.Fatalf("key %d: %g after retries, want %g", k, dst[i], storage.Get(base, k))
		}
	}
}

// TestServerClosesSilentPeers: a peer that connects and never sends its
// handshake is hung up on once handshakeTimeout passes, while a client that
// handshook at the same time keeps its pooled connection past that deadline.
func TestServerClosesSilentPeers(t *testing.T) {
	local := testStore(500, 7)
	addr, _ := startShard(t, local, codec.ShardMeta{ShardCount: 1})
	var anyKey int
	local.Walk(func(k int, _ float64) bool { anyKey = k; return false })
	want := storage.Get(local, anyKey)

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start := time.Now()
	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()
	if v, err := storage.GetCtx(context.Background(), remote, anyKey); err != nil || v != want {
		t.Fatalf("first request: %g, %v; want %g", v, err, want)
	}

	_ = silent.SetReadDeadline(start.Add(handshakeTimeout + 5*time.Second))
	if n, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent peer read %d bytes, %v; want the server to close (EOF)", n, err)
	}
	if waited := time.Since(start); waited < handshakeTimeout/2 || waited > handshakeTimeout+time.Second {
		t.Fatalf("silent peer closed after %v, want ≈ %v", waited, handshakeTimeout)
	}
	time.Sleep(100 * time.Millisecond)
	if v, err := storage.GetCtx(context.Background(), remote, anyKey); err != nil || v != want {
		t.Fatalf("request on the pooled connection after the handshake deadline: %g, %v; want %g", v, err, want)
	}
}

// handshaken dials addr and completes the wire handshake by hand.
func handshaken(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := codec.WriteHandshake(conn, codec.MaxWireVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.ReadHandshake(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestServerDropsPeersStalledMidFrame: a handshaken peer that sends two of a
// frame's four length bytes and stalls is hung up on once frameTimeout
// passes, while a handshaken connection idle for longer than that still
// serves its next request — the wait for a frame's first byte has no
// deadline.
func TestServerDropsPeersStalledMidFrame(t *testing.T) {
	addr, _ := startShard(t, testStore(500, 7), codec.ShardMeta{
		Names: []string{"x"}, Sizes: []int{1 << 20}, FilterName: "Haar", ShardCount: 1,
	})
	idle, stalled := handshaken(t, addr), handshaken(t, addr)
	start := time.Now()
	if _, err := stalled.Write([]byte{16, 0}); err != nil {
		t.Fatal(err)
	}
	_ = stalled.SetReadDeadline(start.Add(frameTimeout + 5*time.Second))
	if n, err := stalled.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled peer read %d bytes, %v; want the server to close (EOF)", n, err)
	}
	if waited := time.Since(start); waited < frameTimeout/2 || waited > frameTimeout+time.Second {
		t.Fatalf("stalled peer closed after %v, want ≈ %v", waited, frameTimeout)
	}

	time.Sleep(100 * time.Millisecond)
	if err := codec.WriteMetaReqV(idle, codec.MaxWireVersion, 7, ""); err != nil {
		t.Fatal(err)
	}
	_ = idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := codec.ReadFrameVersion(idle, codec.MaxWireVersion)
	if err != nil {
		t.Fatalf("request on a connection idle for %v: %v", time.Since(start), err)
	}
	if m, err := frame.Meta(); err != nil || frame.ID != 7 || m.FilterName != "Haar" {
		t.Fatalf("idle connection answered frame %d: %+v, %v", frame.ID, m, err)
	}
}

// TestServerCapsOpenConnections: a shard holds at most maxConns connections.
// One more is closed before its handshake, and once a held connection
// closes a new one is served again.
func TestServerCapsOpenConnections(t *testing.T) {
	addr, _ := startShard(t, testStore(50, 7), codec.ShardMeta{ShardCount: 1})
	held := make([]net.Conn, maxConns)
	for i := range held {
		held[i] = handshaken(t, addr)
	}
	handshake := func() error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := codec.WriteHandshake(conn, codec.MaxWireVersion); err != nil {
			return err
		}
		_, err = codec.ReadHandshake(conn)
		return err
	}
	if err := handshake(); err == nil {
		t.Fatalf("connection %d was served; the cap is %d", maxConns+1, maxConns)
	}
	_ = held[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for err := handshake(); err != nil; err = handshake() {
		if time.Now().After(deadline) {
			t.Fatalf("no connection served after one of %d closed: %v", maxConns, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
