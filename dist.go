package repro

import (
	"fmt"
	"log/slog"
	"net"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// The distributed evaluation tier: a database's coefficient store Δ̂ can be
// served by N shard servers (NewShardServer), each owning the keys
// storage.ShardOf assigns it, and reassembled behind a coordinator
// (OpenDistributed) that fans every retrieval out over TCP to the key's
// owner. Every shard serves the same view, so a progressive drain through
// the coordinator produces bit-identical estimates to a single-node run; a dead
// shard degrades the run (skipped coefficients, Theorem-1 bounds intact)
// instead of failing it.

// ShardHealth is one shard's health ledger as tracked by the coordinator:
// request/key/error counts, degraded keys, and the last error seen.
type ShardHealth = dist.ShardHealth

// ValidShardCount reports an error unless n is a positive power of two, the
// precondition of the shard partition function.
func ValidShardCount(n int) error { return dist.ValidShardCount(n) }

// ShardServer serves one shard of a database over TCP: the database's own
// view, answering for the keys storage.ShardOf assigns the shard. Build one per
// shard index with Database.NewShardServer, then Serve on a listener; the
// coordinator side is OpenDistributed.
type ShardServer struct {
	srv   *dist.Server
	meta  codec.ShardMeta
	stack string
}

// NewShardServer serves shard index of count of the database over the shard
// wire protocol. Nothing is copied: the shard serves the view itself — the
// mapping of an opened .wvls file, a loaded store, or under MVCC the head
// snapshot taken here — and storage.ShardOf decides which keys it owns. The
// coordinator routes every key to its owner, so a shard is never asked for
// another's key; asked anyway, it answers with the view's value. Nonzero and
// Mass are the served view's own, read rather than summed: a mapped file's
// header, a loaded store's count and load-time mass, or the snapshot's. A
// mapped file has its index sections and every block checked here, once, so
// a damaged file is an error at start rather than a degraded read later.
//
// The database must stay open while the server serves it. count must be a
// positive power of two and every shard of a deployment must be built with
// the same count (and from the same database); the coordinator
// cross-checks both at open time. logger may be nil for silence.
func (db *Database) NewShardServer(index, count int, logger *slog.Logger) (*ShardServer, error) {
	if err := dist.ValidShard(index, count); err != nil {
		return nil, err
	}
	if db.coord != nil {
		return nil, fmt.Errorf("repro: a coordinator cannot serve as a shard; serve its shards' files")
	}
	if db.layout != nil {
		if err := db.layout.Verify(); err != nil {
			return nil, fmt.Errorf("repro: checking the view file: %w", err)
		}
	}
	st, mass := db.base, db.mass
	if db.mvcc != nil {
		sn := db.mvcc.Snapshot()
		sn.Release()
		st, mass = sn.View(), sn.Mass()
	}
	meta := codec.ShardMeta{
		Names:      db.schema.Names,
		Sizes:      db.schema.Sizes,
		Windows:    db.windows,
		FilterName: db.filter.Name,
		TupleCount: db.TupleCount(),
		ShardIndex: index,
		ShardCount: count,
		Nonzero:    int64(st.NonzeroCount()),
		Mass:       mass,
	}
	// Served bare: every connection of a dist.Server retrieves from its own
	// goroutine, and every base and MVCC view takes concurrent readers.
	return &ShardServer{srv: dist.NewServer(st, meta, logger), meta: meta, stack: storage.Describe(st)}, nil
}

// StoreStack prints the store stack the shard serves from, base first.
func (s *ShardServer) StoreStack() string { return s.stack }

// Serve accepts shard-protocol connections on ln until Close. It returns
// nil after Close.
func (s *ShardServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Close stops the server, severing open connections. Idempotent.
func (s *ShardServer) Close() error { return s.srv.Close() }

// Requests returns the number of request frames served.
func (s *ShardServer) Requests() int64 { return s.srv.Requests() }

// Nonzero returns the number of nonzero coefficients of the served view.
func (s *ShardServer) Nonzero() int64 { return s.meta.Nonzero }

// Mass returns the served view's coefficient mass K = Σ|Δ̂[ξ]|.
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
// file is needed on the coordinator. Every shard serves the whole view and
// reports its nonzero count and coefficient mass, so the shards must agree on
// both to the bit; the coordinator takes them unchanged, and its Theorem-1
// bounds and NonzeroCoefficients are a local server's of the same file.
//
// The resulting database is read-only (writes return ErrReadOnly). Close it
// to release the shard connections.
func OpenDistributed(addrs []string, opts DistOptions) (*Database, error) {
	coord, meta, err := dist.Open(addrs, dist.ClientConfig{
		DialTimeout:    opts.DialTimeout,
		RequestTimeout: opts.RequestTimeout,
		PoolSize:       opts.PoolSize,
	})
	if err != nil {
		return nil, err
	}
	schema, err := dataset.NewSchema(meta.Names, meta.Sizes)
	if err != nil {
		_ = coord.Close()
		return nil, fmt.Errorf("repro: shard schema invalid: %w", err)
	}
	filter, err := wavelet.ByName(meta.FilterName)
	if err != nil {
		_ = coord.Close()
		return nil, fmt.Errorf("repro: shards serve %w", err)
	}
	db := newDatabase(schema, filter, coord, meta.TupleCount, meta.Mass)
	db.windows, db.coord = meta.Windows, coord
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
// shard (0 for a shard never connected); ok is false for databases not
// opened with OpenDistributed.
func (db *Database) ShardWireVersions() ([]uint16, bool) {
	if db.coord == nil {
		return nil, false
	}
	return db.coord.WireVersions(), true
}

// Close releases resources held by the store — shard connections for a
// distributed database, the file mapping and handle for a layout-backed
// one, after any background MVCC compaction that may be walking it has
// finished. Safe (and a no-op) for ordinary in-memory databases.
func (db *Database) Close() error {
	if db.coord != nil {
		return db.coord.Close()
	}
	if db.layout != nil {
		if db.mvcc != nil {
			db.mvcc.WaitCompactions()
		}
		return db.layout.Close()
	}
	return nil
}
