package dist

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ClientConfig tunes the client side of the shard protocol. The zero value
// is usable: normalized fills in the defaults below.
type ClientConfig struct {
	// DialTimeout bounds establishing (and handshaking) one connection.
	// 0 means the default of 2s.
	DialTimeout time.Duration
	// RequestTimeout is the per-attempt deadline of one request round-trip.
	// It bounds every call even when the caller's context has no deadline —
	// a hung shard must become an error the retry/degradation machinery can
	// act on, not a stuck drain. 0 means the default of 5s.
	RequestTimeout time.Duration
	// PoolSize caps the idle connections kept per shard. Concurrent requests
	// beyond the pool dial extra connections and discard them afterwards.
	// 0 means the default of 4.
	PoolSize int
	// MaxWireVersion caps the wire version this client announces in the
	// handshake. 0 means codec.MaxWireVersion; set 1 to speak the original
	// no-trace protocol (interop testing, or trimming the per-frame trace
	// bytes).
	MaxWireVersion uint16
}

// normalized returns cfg with defaults applied.
func (cfg ClientConfig) normalized() ClientConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	if cfg.MaxWireVersion == 0 || cfg.MaxWireVersion > codec.MaxWireVersion {
		cfg.MaxWireVersion = codec.MaxWireVersion
	}
	return cfg
}

// remoteConn is one pooled connection with its buffered reader and the wire
// version negotiated on it.
type remoteConn struct {
	conn    net.Conn
	br      *bufio.Reader
	version uint16
	// yank is the cancellation watcher of the request in flight (see
	// roundTrip): it sets a past deadline so blocked reads and writes return
	// at once, then sends one token on watched. Both are built once per
	// connection so a request allocates neither.
	yank    func()
	watched chan struct{}
}

// RemoteStore is the client of one shard server: a storage.Store whose
// retrievals travel the wire. Connections are pooled and lazily
// dialed; every request carries a per-attempt deadline (ClientConfig.
// RequestTimeout, tightened by the context's own deadline) and observes
// cancellation mid-flight, so a dead or hung shard surfaces as an error
// within one timeout instead of wedging the run. All methods are safe for
// concurrent use — the store is designed to sit under RetryStore,
// CoalescingStore and InstrumentedStore unchanged.
type RemoteStore struct {
	addr  string
	cfg   ClientConfig
	pool  chan *remoteConn
	reqID atomic.Uint64

	retrievals atomic.Int64
	closed     atomic.Bool
	// negotiated is the wire version of the most recent handshake (0 until
	// the first connection) — the /stats trace-propagation diagnostic.
	negotiated atomic.Uint32
}

// NewRemoteStore returns a client for the shard at addr. No connection is
// made until the first request (or Ping).
func NewRemoteStore(addr string, cfg ClientConfig) *RemoteStore {
	cfg = cfg.normalized()
	return &RemoteStore{
		addr: addr,
		cfg:  cfg,
		pool: make(chan *remoteConn, cfg.PoolSize),
	}
}

// Addr returns the shard address this store talks to.
func (s *RemoteStore) Addr() string { return s.addr }

// NegotiatedVersion returns the wire version of the most recent handshake
// with the shard, or 0 before any connection succeeded. Version ≥ 2 means
// trace propagation is active on the link.
func (s *RemoteStore) NegotiatedVersion() uint16 { return uint16(s.negotiated.Load()) }

// Close drains and closes the pooled connections. Requests after Close fail.
func (s *RemoteStore) Close() error {
	s.closed.Store(true)
	for {
		select {
		case rc := <-s.pool:
			_ = rc.conn.Close()
		default:
			return nil
		}
	}
}

// acquire returns a pooled connection or dials a fresh one.
func (s *RemoteStore) acquire(ctx context.Context) (*remoteConn, error) {
	select {
	case rc := <-s.pool:
		return rc, nil
	default:
	}
	d := net.Dialer{Timeout: s.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", s.addr)
	if err != nil {
		return nil, err
	}
	// Handshake under the dial timeout: a listener that accepts but never
	// speaks must not hang the caller. The client announces the highest
	// version it speaks; the server replies with the connection's version
	// (min of both sides), which every frame on this connection then uses.
	_ = conn.SetDeadline(time.Now().Add(s.cfg.DialTimeout))
	rc := &remoteConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), watched: make(chan struct{}, 1)}
	rc.yank = func() {
		_ = conn.SetDeadline(time.Now().Add(-time.Second))
		rc.watched <- struct{}{}
	}
	if err := codec.WriteHandshake(conn, s.cfg.MaxWireVersion); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	ver, err := codec.ReadHandshake(rc.br)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if ver > s.cfg.MaxWireVersion {
		_ = conn.Close()
		return nil, fmt.Errorf("handshake: server replied version %d above announced %d", ver, s.cfg.MaxWireVersion)
	}
	rc.version = ver
	s.negotiated.Store(uint32(ver))
	_ = conn.SetDeadline(time.Time{})
	return rc, nil
}

// release returns a healthy connection to the pool (or closes it when the
// pool is full or the store closed).
func (s *RemoteStore) release(rc *remoteConn) {
	if s.closed.Load() {
		_ = rc.conn.Close()
		return
	}
	select {
	case s.pool <- rc:
	default:
		_ = rc.conn.Close()
	}
}

// roundTrip performs one request with per-attempt deadline and mid-flight
// cancellation: write the frame, read the matching response. On any
// transport failure the connection is discarded and a shard-attributed
// error (matching ErrShard) is returned — unless the caller's context ended,
// in which case ctx.Err() wins so cancellation is never misread as a shard
// fault (RetryStore, for one, must not retry it).
func (s *RemoteStore) roundTrip(ctx context.Context, write func(conn net.Conn, version uint16, id uint64) error) (*codec.WireFrame, error) {
	if s.closed.Load() {
		return nil, &remoteError{addr: s.addr, msg: "client closed"}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rc, err := s.acquire(ctx)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, &remoteError{addr: s.addr, msg: "dial: " + err.Error()}
	}
	// Per-attempt deadline, tightened by the context's own.
	deadline := time.Now().Add(s.cfg.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = rc.conn.SetDeadline(deadline)
	// Mid-flight cancellation: yank the deadline so blocked reads/writes
	// return immediately.
	stop := context.AfterFunc(ctx, rc.yank)
	id := s.reqID.Add(1)
	frame, err := func() (*codec.WireFrame, error) {
		if err := write(rc.conn, rc.version, id); err != nil {
			return nil, err
		}
		return codec.ReadFrameVersion(rc.br, rc.version)
	}()
	if !stop() {
		// The watcher fired: wait until its past deadline is in place, so it
		// cannot land after the deadline is cleared below and poison the
		// connection for the next request that takes it from the pool.
		<-rc.watched
	}
	if err != nil {
		_ = rc.conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, &remoteError{addr: s.addr, msg: err.Error()}
	}
	if frame.ID != id {
		_ = rc.conn.Close()
		return nil, &remoteError{addr: s.addr, msg: fmt.Sprintf("response id %d for request %d", frame.ID, id)}
	}
	_ = rc.conn.SetDeadline(time.Time{})
	s.release(rc)
	return frame, nil
}

// BatchGetCtx implements storage.Store: one wire round-trip for the
// whole batch. Remote per-key failures come back as a *storage.BatchError
// with shard-attributed causes; transport failures, remote whole-request
// errors and timeouts fail the whole call (every value untrusted), which the
// retry layer treats as a retriable whole-batch failure.
func (s *RemoteStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("dist: BatchGetCtx keys/dst length mismatch")
	}
	if len(keys) == 0 {
		return nil
	}
	s.retrievals.Add(int64(len(keys)))
	// The request ID rides the v2 frame extension so the shard's spans join
	// this query's trace; on a v1 connection the writer drops it.
	trace := obs.RequestID(ctx)
	frame, err := s.roundTrip(ctx, func(conn net.Conn, version uint16, id uint64) error {
		return codec.WriteBatchGetReqV(conn, version, id, trace, keys)
	})
	if err != nil {
		return err
	}
	// Wire accounting for EXPLAIN ANALYZE: response bytes and the shard's
	// echoed serve time (0 on v1). No-op without a profile in ctx.
	obs.ProfileFrom(ctx).AddRemote(s.addr, frame.WireSize, time.Duration(frame.ElapsedNanos))
	switch frame.Type {
	case codec.FrameError:
		msg, err := frame.ErrorMsg()
		if err != nil {
			msg = "undecodable error frame: " + err.Error()
		}
		return &remoteError{addr: s.addr, msg: msg}
	case codec.FrameBatchGetResp:
		vals, failed, err := frame.BatchGetResp(len(keys))
		if err != nil {
			return &remoteError{addr: s.addr, msg: err.Error()}
		}
		copy(dst, vals)
		if len(failed) == 0 {
			return nil
		}
		kes := make([]storage.KeyError, len(failed))
		for i, fe := range failed {
			kes[i] = storage.KeyError{
				Index: fe.Index,
				Key:   keys[fe.Index],
				Err:   &remoteError{addr: s.addr, msg: fe.Msg},
			}
		}
		return &storage.BatchError{Failed: kes}
	default:
		return &remoteError{addr: s.addr, msg: fmt.Sprintf("unexpected frame type %d", frame.Type)}
	}
}

// Meta fetches the shard's self-description.
func (s *RemoteStore) Meta(ctx context.Context) (*codec.ShardMeta, error) {
	trace := obs.RequestID(ctx)
	frame, err := s.roundTrip(ctx, func(conn net.Conn, version uint16, id uint64) error {
		return codec.WriteMetaReqV(conn, version, id, trace)
	})
	if err != nil {
		return nil, err
	}
	if frame.Type == codec.FrameError {
		msg, err := frame.ErrorMsg()
		if err != nil {
			msg = err.Error()
		}
		return nil, &remoteError{addr: s.addr, msg: msg}
	}
	m, err := frame.Meta()
	if err != nil {
		return nil, &remoteError{addr: s.addr, msg: err.Error()}
	}
	return m, nil
}

// Retrievals implements storage.Store, counting keys requested through this
// client (the shard's own counter tracks what physically reached it).
func (s *RemoteStore) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements storage.Store.
func (s *RemoteStore) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements storage.Store via the metadata frame; it reports 0
// when the shard is unreachable (a diagnostic surface, not a correctness
// one).
func (s *RemoteStore) NonzeroCount() int {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	m, err := s.Meta(ctx)
	if err != nil {
		return 0
	}
	return int(m.Nonzero)
}

// ConcurrentSafe implements the storage.IsConcurrent capability check.
func (s *RemoteStore) ConcurrentSafe() bool { return true }

var _ storage.Store = (*RemoteStore)(nil)
