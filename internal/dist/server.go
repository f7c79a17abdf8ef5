package dist

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/storage"
)

// Server exposes one coefficient shard over plain TCP: it answers BatchGet
// frames from the wrapped store and Meta frames from its static
// self-description. Requests on one connection are handled serially
// (the client pool provides parallelism with one in-flight request per
// connection); connections are independent goroutines, each a reader of the
// store.
type Server struct {
	store  storage.Store
	meta   codec.ShardMeta
	log    *slog.Logger // nil = silent
	ctx    context.Context
	cancel context.CancelFunc

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

// maxConns caps the connections a shard holds open at once: each holds a
// goroutine and its 128 KiB of buffers. A coordinator keeps 4 per shard by
// default and dials more only while that many requests are in flight, so
// the cap leaves room for dozens of coordinators. A connection past it is
// closed before its handshake, which the client reports as a failed dial.
const maxConns = 256

// frameTimeout bounds the rest of a request frame once its first byte has
// arrived, and the write of each response: the bytes of one batch (kilobytes
// for a scheduler slice, megabytes for a large exact pass) are already in
// flight, and the client gives the whole round trip 5 s by default. A peer
// that stalls mid-frame, or stops reading its answers, is dropped instead of
// holding the connection's goroutine and buffers until Close. The wait for a
// frame's first byte has no deadline, so an idle pooled connection stays open.
const frameTimeout = 2 * time.Second

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

// Serve accepts connections on ln until Close, at most maxConns open at
// once. It returns nil after Close; any other accept failure is returned
// as-is.
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
		if len(s.conns) >= maxConns {
			s.mu.Unlock()
			s.logWarn("connection refused: too many open", "remote", conn.RemoteAddr().String(), "max", maxConns)
			_ = conn.Close()
			continue
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
// the peer hangs up, a protocol violation occurs, a frame or a response
// overruns frameTimeout, or the server closes.
func (s *Server) handle(conn net.Conn) {
	defer s.drop(conn)
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	// A client announcing a version this build does not speak (the retired
	// v1) is refused: the connection closes without a reply.
	clientV, err := codec.ReadHandshake(br)
	if err != nil {
		s.logWarn("handshake failed", "remote", conn.RemoteAddr().String(), "error", err)
		return
	}
	// Reply with the connection's version: the minimum of what the client
	// announced and what this server speaks.
	if err := codec.WriteHandshake(bw, codec.NegotiateVersion(clientV)); err != nil || bw.Flush() != nil {
		return
	}
	for {
		// Idle between requests: no deadline until a frame starts.
		_ = conn.SetDeadline(time.Time{})
		_, err := br.Peek(1)
		var frame *codec.WireFrame
		if err == nil {
			_ = conn.SetReadDeadline(time.Now().Add(frameTimeout))
			frame, err = codec.ReadFrameVersion(br, codec.MaxWireVersion)
		}
		if err != nil {
			// EOF and reset are the peer leaving; anything else is noise worth
			// a log line. Either way the connection is done.
			if s.ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				s.logDebug("connection closed", "remote", conn.RemoteAddr().String(), "error", err)
			}
			return
		}
		s.requests.Add(1)
		respond := s.serveFrame(frame)
		_ = conn.SetWriteDeadline(time.Now().Add(frameTimeout))
		if err := respond(bw); err != nil {
			s.errors.Add(1)
			s.logWarn("writing response failed", "remote", conn.RemoteAddr().String(), "error", err)
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// serveFrame answers one request frame: it does the retrieval and returns
// the write of the response (unflushed), which the caller puts under the
// write deadline. The response echoes the serve time, which the
// coordinator's profile records beside its own wall time for the shard; the
// request ID a frame carries is not read here.
func (s *Server) serveFrame(frame *codec.WireFrame) func(w io.Writer) error {
	const ver = codec.MaxWireVersion
	start := time.Now()
	elapsed := func() uint64 { return uint64(time.Since(start).Nanoseconds()) }
	fail := func(msg string) func(io.Writer) error {
		return func(w io.Writer) error { return codec.WriteErrorFrameV(w, ver, frame.ID, elapsed(), msg) }
	}
	switch frame.Type {
	case codec.FrameBatchGetReq:
		keys, err := frame.BatchGetReq()
		if err != nil {
			return fail("malformed batch: " + err.Error())
		}
		vals := make([]float64, len(keys))
		err = s.store.BatchGetCtx(s.ctx, keys, vals)
		var be *storage.BatchError
		var failed []codec.WireError
		switch {
		case err == nil:
		case errors.As(err, &be):
			failed = make([]codec.WireError, len(be.Failed))
			for i, ke := range be.Failed {
				failed[i] = codec.WireError{Index: ke.Index, Msg: ke.Err.Error()}
			}
		default:
			// Whole-batch failure (cancellation, store outage): no position may
			// be trusted, so the whole request fails.
			return fail(err.Error())
		}
		return func(w io.Writer) error { return codec.WriteBatchGetRespV(w, ver, frame.ID, elapsed(), vals, failed) }
	case codec.FrameMetaReq:
		return func(w io.Writer) error { return codec.WriteMetaRespV(w, ver, frame.ID, elapsed(), &s.meta) }
	default:
		return fail("unknown frame type")
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
