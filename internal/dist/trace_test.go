package dist

// Tests for the diagnostics extensions of the shard wire protocol: the
// coordinator's request ID crosses a real TCP round-trip in the request
// frame's extension, a peer announcing the retired version 1 is refused on
// either side of the connection, and a query profile driven through the
// coordinator attributes keys, bytes and echoed serve time per shard.

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/storetest"
)

// someKeys returns up to n keys present in st, plus vals sized to match.
func someKeys(st *storetest.Map, n int) ([]int, []float64) {
	keys := make([]int, 0, n)
	st.Walk(func(k int, _ float64) bool {
		keys = append(keys, k)
		return len(keys) < n
	})
	return keys, make([]float64, len(keys))
}

// TestTracePropagationOverTCP: a client negotiates v2 with a shard server
// and reads back the shard's values, and every request frame it sends
// carries the caller's request ID in its extension (a recording peer reads
// it), so a shard of either build decodes the frame.
func TestTracePropagationOverTCP(t *testing.T) {
	store := testStore(2000, 77)
	addr, _ := startShard(t, store, codec.ShardMeta{ShardCount: 1})

	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()
	if got := remote.NegotiatedVersion(); got != 0 {
		t.Fatalf("negotiated version = %d before any connection, want 0", got)
	}

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

	// A peer that answers the handshake and records the first request
	// frame: the request ID rode the extension.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	frames := make(chan *codec.WireFrame, 1)
	go func() {
		defer close(frames)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		if _, err := codec.ReadHandshake(conn); err != nil {
			return
		}
		if err := codec.WriteHandshake(conn, codec.MaxWireVersion); err != nil {
			return
		}
		if frame, err := codec.ReadFrameVersion(conn, codec.MaxWireVersion); err == nil {
			frames <- frame
		}
	}()
	peer := NewRemoteStore(ln.Addr().String(), ClientConfig{})
	defer func() { _ = peer.Close() }()
	_ = peer.BatchGetCtx(ctx, keys[:1], vals[:1]) // the peer hangs up unanswered
	if frame := <-frames; frame == nil || frame.Trace != reqID {
		t.Fatalf("request frame %+v, want it to carry request ID %q", frame, reqID)
	}
}

// v1Announce is the preamble of a peer speaking the retired version 1.
const v1Announce = "WVDW\x01\x00"

// TestWireV1ClientRefused: a shard server sent a version-1 announce closes
// the connection without replying, and still serves current clients.
func TestWireV1ClientRefused(t *testing.T) {
	store := testStore(2000, 78)
	addr, srv := startShard(t, store, codec.ShardMeta{ShardCount: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := io.WriteString(conn, v1Announce); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading after a v1 announce: %v, want the server to close the connection", err)
	}
	if len(reply) != 0 {
		t.Fatalf("server replied %q to a v1 announce, want no reply", reply)
	}
	if n := srv.Requests(); n != 0 {
		t.Fatalf("server counted %d requests on a refused connection", n)
	}

	remote := NewRemoteStore(addr, ClientConfig{})
	defer func() { _ = remote.Close() }()
	keys, vals := someKeys(store, 16)
	if err := remote.BatchGetCtx(context.Background(), keys, vals); err != nil {
		t.Fatalf("current client after a refused v1 peer: %v", err)
	}
}

// TestWireV1ServerRefused: a client whose server replies with version 1
// fails the request with a handshake error naming the version, and never
// records the version as negotiated.
func TestWireV1ServerRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	announced := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		hello := make([]byte, len(v1Announce))
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		announced <- hello
		_, _ = io.WriteString(conn, v1Announce)
		_, _ = io.Copy(io.Discard, conn)
	}()

	remote := NewRemoteStore(ln.Addr().String(), ClientConfig{})
	defer func() { _ = remote.Close() }()
	err = remote.BatchGetCtx(context.Background(), []int{1, 2}, make([]float64, 2))
	if err == nil || !strings.Contains(err.Error(), "handshake") || !strings.Contains(err.Error(), "wire version 1") {
		t.Fatalf("request to a v1 server: %v, want a handshake error naming wire version 1", err)
	}
	var want bytes.Buffer
	if err := codec.WriteHandshake(&want, codec.MaxWireVersion); err != nil {
		t.Fatal(err)
	}
	if hello := <-announced; !bytes.Equal(hello, want.Bytes()) {
		t.Fatalf("client announced %q, want %q", hello, want.Bytes())
	}
	if v := remote.NegotiatedVersion(); v != 0 {
		t.Fatalf("negotiated version %d recorded for a refused server", v)
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
		addr, _ := startShard(t, src, codec.ShardMeta{ShardIndex: i, ShardCount: shardN})
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
