package repro

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// The distributed evaluation tier: a database's coefficient store Δ̂ can be
// partitioned across N shard servers (NewShardServer) and reassembled behind
// a coordinator (OpenDistributed) that fans every retrieval out over TCP.
// The partition is value-preserving, so a progressive drain through the
// coordinator produces bit-identical estimates to a single-node run; a dead
// shard degrades the run (skipped coefficients, Theorem-1 bounds intact)
// instead of failing it.

// ShardHealth is one shard's health ledger as tracked by the coordinator:
// request/key/error counts, degraded keys, and the last error seen.
type ShardHealth = dist.ShardHealth

// ValidShardCount reports an error unless n is a positive power of two, the
// precondition of the shard partition function.
func ValidShardCount(n int) error { return dist.ValidShardCount(n) }

// ShardServer serves one partition of a database's coefficients over TCP.
// Build one per shard index with Database.NewShardServer (from a live
// database) or LoadShardServer (from a database file), then Serve on a
// listener; the coordinator side is OpenDistributed.
type ShardServer struct {
	srv   *dist.Server
	meta  codec.ShardMeta
	stack string
}

// NewShardServer extracts shard index of count from the database (the
// nonzero coefficients the partition hash assigns to that index) and wraps
// the partition in a TCP server speaking the shard wire protocol. The
// database itself is not retained — the server owns a private copy of its
// slice. count must be a positive power of two and every shard of a
// deployment must be built with the same count (and from the same
// database); the coordinator cross-checks both at open time. logger may be
// nil for silence.
func (db *Database) NewShardServer(index, count int, logger *slog.Logger) (*ShardServer, error) {
	st, ok := db.enumStore()
	if !ok {
		return nil, fmt.Errorf("repro: store %T cannot enumerate; cannot partition it into shards", st)
	}
	part, nonzero, mass, err := dist.Partition(st.(storage.Enumerable), index, count)
	if err != nil {
		return nil, err
	}
	return newShardServer(part, logger, codec.ShardMeta{
		Names:      db.schema.Names,
		Sizes:      db.schema.Sizes,
		Windows:    db.windows,
		FilterName: db.filter.Name,
		TupleCount: db.TupleCount(),
		ShardIndex: index,
		ShardCount: count,
		Nonzero:    nonzero,
		Mass:       mass,
	}), nil
}

// LoadShardServer builds shard index of count straight from a database file
// written with Save: the decoder's stream is filtered by the partition hash
// as it arrives, so the process holds its own slice of the coefficients and
// never the whole file. The result is the server NewShardServer would build
// from the loaded database: same coefficients, same Nonzero, same Mass.
func LoadShardServer(r io.Reader, index, count int, logger *slog.Logger) (*ShardServer, error) {
	var (
		part *dist.Partitioner
		meta codec.ShardMeta
	)
	err := codec.Decode(r, func(h *codec.Header) (func(int, float64), error) {
		if _, err := wavelet.ByName(h.FilterName); err != nil {
			return nil, fmt.Errorf("repro: stored database uses %w", err)
		}
		var err error
		// An even split is what the partition hash delivers to within a
		// fraction of a percent; a shard that gets more than its share grows
		// its table like any other store.
		if part, err = dist.NewPartitioner(index, count, h.Schema.Cells(), (h.Count+count-1)/count); err != nil {
			return nil, err
		}
		meta = codec.ShardMeta{
			Names:      h.Schema.Names,
			Sizes:      h.Schema.Sizes,
			Windows:    h.Windows,
			FilterName: h.FilterName,
			TupleCount: h.TupleCount,
			ShardIndex: index,
			ShardCount: count,
		}
		return part.Add, nil
	})
	if err != nil {
		return nil, err
	}
	var st storage.Store
	st, meta.Nonzero, meta.Mass = part.Result()
	return newShardServer(st, logger, meta), nil
}

// newShardServer serves part bare: every connection of a dist.Server
// retrieves from its own goroutine, and a partition is only ever read.
func newShardServer(part storage.Store, logger *slog.Logger, meta codec.ShardMeta) *ShardServer {
	return &ShardServer{srv: dist.NewServer(part, meta, logger), meta: meta, stack: storage.Describe(part)}
}

// StoreStack prints the store stack the shard serves from, base first.
func (s *ShardServer) StoreStack() string { return s.stack }

// Serve accepts shard-protocol connections on ln until Close. It returns
// nil after Close.
func (s *ShardServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// ObserveSpans points the shard server's request handling at sink: every
// request frame that carries a trace context (wire protocol v2) records a
// shard-side span — keyed by the coordinator's request ID — into this
// process's span ring, where /debug/traces?request_id= finds it. Call before
// Serve; a nil sink disables.
func (s *ShardServer) ObserveSpans(sink *obs.SpanSink) { s.srv.SetSpanSink(sink) }

// SetMaxWireVersion caps the wire protocol version the shard server offers
// during handshake (0 restores the default, codec.MaxWireVersion). Setting 1
// emulates a pre-diagnostics peer: connections still serve retrievals but
// carry no trace contexts or serve-time echoes. Call before Serve.
func (s *ShardServer) SetMaxWireVersion(v uint16) { s.srv.SetMaxWireVersion(v) }

// Close stops the server, severing open connections. Idempotent.
func (s *ShardServer) Close() error { return s.srv.Close() }

// Requests returns the number of request frames served.
func (s *ShardServer) Requests() int64 { return s.srv.Requests() }

// Nonzero returns the number of nonzero coefficients this shard holds.
func (s *ShardServer) Nonzero() int64 { return s.meta.Nonzero }

// Mass returns this shard's coefficient mass Σ|Δ̂[ξ]| over its partition.
func (s *ShardServer) Mass() float64 { return s.meta.Mass }

// FilterName returns the name of the wavelet filter of the served transform.
func (s *ShardServer) FilterName() string { return s.meta.FilterName }

// DistOptions configures the coordinator's shard clients.
type DistOptions struct {
	// DialTimeout bounds connecting (and handshaking) to one shard;
	// 0 means 2s.
	DialTimeout time.Duration
	// RequestTimeout is the per-attempt deadline of one shard round-trip;
	// 0 means 5s.
	RequestTimeout time.Duration
	// PoolSize caps idle connections kept per shard; 0 means 4.
	PoolSize int
}

// OpenDistributed opens a database whose coefficient store lives on the
// shard servers at addrs (index i of addrs must serve shard i). It dials
// every shard, fetches and cross-checks their self-descriptions — same
// schema, filter, tuple count, and a shard count equal to len(addrs); any
// disagreement is a deployment error reported before a single query runs —
// and assembles the Database from the validated metadata: no local database
// file is needed on the coordinator. The coefficient mass behind Theorem-1
// bounds is the sum of the shards' partition masses (each accumulated in
// ascending key order, summed in shard order, so bounds are deterministic
// and identical to the single-node enumeration).
//
// The resulting database is read-only (writes return ErrReadOnly). Close it
// to release the shard connections.
func OpenDistributed(addrs []string, opts DistOptions) (*Database, error) {
	if err := dist.ValidShardCount(len(addrs)); err != nil {
		return nil, err
	}
	cfg := dist.ClientConfig{
		DialTimeout:    opts.DialTimeout,
		RequestTimeout: opts.RequestTimeout,
		PoolSize:       opts.PoolSize,
	}
	remotes := make([]*dist.RemoteStore, len(addrs))
	closeAll := func() {
		for _, r := range remotes {
			if r != nil {
				_ = r.Close()
			}
		}
	}
	metas := make([]*codec.ShardMeta, len(addrs))
	for i, addr := range addrs {
		remotes[i] = dist.NewRemoteStore(addr, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		m, err := remotes[i].Meta(ctx)
		cancel()
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("repro: shard %d (%s) unreachable: %w", i, addr, err)
		}
		metas[i] = m
	}
	if err := dist.ValidateMetas(metas); err != nil {
		closeAll()
		return nil, err
	}
	schema, err := dataset.NewSchema(metas[0].Names, metas[0].Sizes)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("repro: shard schema invalid: %w", err)
	}
	filter, err := wavelet.ByName(metas[0].FilterName)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("repro: shards serve %w", err)
	}
	var mass float64
	for _, m := range metas {
		mass += m.Mass
	}
	shards := make([]storage.Store, len(remotes))
	for i, r := range remotes {
		shards[i] = r
	}
	coord, err := dist.NewCoordinator(shards, addrs)
	if err != nil {
		closeAll()
		return nil, err
	}
	db := newDatabase(schema, filter, coord)
	db.windows, db.cachedMass, db.coord = metas[0].Windows, &mass, coord
	db.tuples.Store(metas[0].TupleCount)
	return db, nil
}

// Distributed reports whether this database retrieves through a shard
// coordinator (i.e. it was opened with OpenDistributed).
func (db *Database) Distributed() bool { return db.coord != nil }

// ShardHealth snapshots the coordinator's per-shard ledgers; ok is false
// for databases not opened with OpenDistributed.
func (db *Database) ShardHealth() (health []ShardHealth, ok bool) {
	if db.coord == nil {
		return nil, false
	}
	return db.coord.Health(), true
}

// ShardWireVersions reports the negotiated shard wire-protocol version per
// shard (0 for a shard never connected). Version 2 connections propagate
// trace contexts to the shard and echo serve time back; ok is false for
// databases not opened with OpenDistributed.
func (db *Database) ShardWireVersions() ([]uint16, bool) {
	if db.coord == nil {
		return nil, false
	}
	return db.coord.WireVersions(), true
}

// Close releases resources held by the store — shard connections for a
// distributed database, the file mapping and handle for a layout-backed
// one. Safe (and a no-op) for ordinary in-memory databases.
func (db *Database) Close() error {
	if db.coord != nil {
		return db.coord.Close()
	}
	if db.layout != nil {
		return db.layout.Close()
	}
	return nil
}
