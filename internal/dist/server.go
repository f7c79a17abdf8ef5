package dist

import (
	"bufio"
	"context"
	"errors"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Server exposes one coefficient shard over plain TCP: it answers BatchGet
// frames from the wrapped store and Meta frames from its static
// self-description. Requests on one connection are handled serially
// (the client pool provides parallelism with one in-flight request per
// connection); connections are independent goroutines, so the store must be
// concurrent-safe or wrapped before being served.
type Server struct {
	store  storage.Store
	meta   codec.ShardMeta
	log    *slog.Logger // nil = silent
	ctx    context.Context
	cancel context.CancelFunc

	// spans, when set, receives shard-side serve spans. A v2 request frame
	// carries the coordinator's request ID; the span lands in this process's
	// ring under that ID, so the two processes' /debug/traces join on it.
	spans *obs.SpanSink
	// maxVersion caps what the server negotiates (0 = codec.MaxWireVersion;
	// set 1 to emulate a no-trace peer in interop tests).
	maxVersion uint16

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// requests / errors count served frames, for shard-side diagnostics.
	requests atomic.Int64
	errors   atomic.Int64
}

// handshakeTimeout bounds a new connection's handshake, the default
// client's DialTimeout: a peer that connects and sends nothing would
// otherwise hold a goroutine and its 128 KiB of buffers until Close.
const handshakeTimeout = 2 * time.Second

// NewServer wraps store with the shard's self-description. logger may be nil
// for silence (tests); pass a structured logger in daemons.
func NewServer(store storage.Store, meta codec.ShardMeta, logger *slog.Logger) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		store:  store,
		meta:   meta,
		log:    logger,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
}

// Requests returns the number of request frames served.
func (s *Server) Requests() int64 { return s.requests.Load() }

// SetSpanSink directs shard-side serve spans into sink (nil keeps tracing
// off). Call before Serve.
func (s *Server) SetSpanSink(sink *obs.SpanSink) { s.spans = sink }

// SetMaxWireVersion caps the version this server negotiates (0 restores
// codec.MaxWireVersion). Call before Serve; version 1 makes the server
// behave as a pre-diagnostics peer.
func (s *Server) SetMaxWireVersion(v uint16) { s.maxVersion = v }

// Serve accepts connections on ln until Close. It returns nil after Close;
// any other accept failure is returned as-is.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("dist: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil // closed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting, severs every connection, and waits for the per-
// connection goroutines to exit. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// drop removes a finished connection.
func (s *Server) drop(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
	s.wg.Done()
}

// handle runs one connection: handshake, then a serial request loop until
// the peer hangs up, a protocol violation occurs, or the server closes.
func (s *Server) handle(conn net.Conn) {
	defer s.drop(conn)
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	clientV, err := codec.ReadHandshake(br)
	if err != nil {
		s.logWarn("handshake failed", "remote", conn.RemoteAddr().String(), "error", err)
		return
	}
	// Reply with the connection's version: the minimum of what the client
	// announced and what this server speaks. Every frame on the connection
	// then uses that version's framing, so a v1 client sees exactly the old
	// protocol.
	ver := codec.NegotiateVersion(clientV, s.maxVersion)
	if err := codec.WriteHandshake(bw, ver); err != nil || bw.Flush() != nil {
		return
	}
	// Requests have no deadline: an idle pooled connection stays open.
	_ = conn.SetDeadline(time.Time{})
	for {
		frame, err := codec.ReadFrameVersion(br, ver)
		if err != nil {
			// EOF and reset are the peer leaving; anything else is noise worth
			// a log line. Either way the connection is done.
			if s.ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				s.logDebug("connection closed", "remote", conn.RemoteAddr().String(), "error", err)
			}
			return
		}
		s.requests.Add(1)
		if err := s.serveFrame(bw, ver, frame); err != nil {
			s.errors.Add(1)
			s.logWarn("writing response failed", "remote", conn.RemoteAddr().String(), "error", err)
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// serveFrame answers one request frame on bw (unflushed). On a v2
// connection the response echoes the serve time, and a request carrying a
// trace records a span into the server's sink under the coordinator's
// request ID — the cross-process joint the diagnostics layer pivots on.
func (s *Server) serveFrame(bw *bufio.Writer, ver uint16, frame *codec.WireFrame) error {
	start := time.Now()
	ctx := s.ctx
	if frame.Trace != "" && s.spans != nil {
		ctx = obs.WithRequestID(ctx, frame.Trace)
		ctx = obs.WithTrace(ctx, frame.Trace, s.spans)
	}
	elapsed := func() uint64 { return uint64(time.Since(start).Nanoseconds()) }
	switch frame.Type {
	case codec.FrameBatchGetReq:
		keys, err := frame.BatchGetReq()
		if err != nil {
			return codec.WriteErrorFrameV(bw, ver, frame.ID, elapsed(), "malformed batch: "+err.Error())
		}
		sctx, span := obs.StartSpan(ctx, "dist.shard.batchget")
		span.SetAttr("keys", strconv.Itoa(len(keys)))
		vals := make([]float64, len(keys))
		err = s.store.BatchGetCtx(sctx, keys, vals)
		span.SetError(err)
		span.End()
		var be *storage.BatchError
		switch {
		case err == nil:
			return codec.WriteBatchGetRespV(bw, ver, frame.ID, elapsed(), vals, nil)
		case errors.As(err, &be):
			failed := make([]codec.WireError, len(be.Failed))
			for i, ke := range be.Failed {
				failed[i] = codec.WireError{Index: ke.Index, Msg: ke.Err.Error()}
			}
			return codec.WriteBatchGetRespV(bw, ver, frame.ID, elapsed(), vals, failed)
		default:
			// Whole-batch failure (cancellation, store outage): no position may
			// be trusted, so the whole request fails.
			return codec.WriteErrorFrameV(bw, ver, frame.ID, elapsed(), err.Error())
		}
	case codec.FrameMetaReq:
		_, span := obs.StartSpan(ctx, "dist.shard.meta")
		span.End()
		return codec.WriteMetaRespV(bw, ver, frame.ID, elapsed(), &s.meta)
	default:
		return codec.WriteErrorFrameV(bw, ver, frame.ID, elapsed(), "unknown frame type")
	}
}

func (s *Server) logWarn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}

func (s *Server) logDebug(msg string, args ...any) {
	if s.log != nil {
		s.log.Debug(msg, args...)
	}
}
