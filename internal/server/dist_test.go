package server

// The HTTP tier over a distributed database: queries through a coordinator
// backed by real TCP shard servers must answer exactly like a local view,
// degrade to 206 Partial Content when a shard dies, and surface the
// per-shard health ledger in /stats.

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro"
)

const distStatements = "COUNT() WHERE x <= 40; SUM(y) WHERE x <= 63; COUNT() WHERE y BETWEEN 10 AND 50"

// distHandler serves a database from four loopback shard servers and
// wraps the assembled distributed view in the HTTP handler.
func distHandler(t *testing.T) (*Handler, []float64, []*repro.ShardServer) {
	t.Helper()
	return distHandlerN(t, 4)
}

// distHandlerN is distHandler over count shards.
func distHandlerN(t *testing.T, count int) (*Handler, []float64, []*repro.ShardServer) {
	t.Helper()
	schema, err := repro.NewSchema([]string{"x", "y"}, []int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	data := repro.UniformData(schema, 700, 23)
	db, err := repro.NewDatabase(data, repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := repro.ParseBatch(schema, distStatements)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	exact := db.Exact(plan)

	addrs := make([]string, count)
	servers := make([]*repro.ShardServer, count)
	for i := 0; i < count; i++ {
		ss, err := db.NewShardServer(i, count, nil)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = ss.Serve(ln) }()
		t.Cleanup(func() { _ = ss.Close() })
		addrs[i] = ln.Addr().String()
		servers[i] = ss
	}
	ddb, err := repro.OpenDistributed(addrs, repro.DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ddb.Close() })
	h := New(ddb, Options{})
	t.Cleanup(h.Close)
	return h, exact, servers
}

func TestQueryOverDistributedDatabase(t *testing.T) {
	h, exact, _ := distHandler(t)
	rec := postQuery(t, h, `{"statements": "`+distStatements+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Exact || resp.Degraded {
		t.Fatalf("exact=%v degraded=%v over healthy shards", resp.Exact, resp.Degraded)
	}
	for i, r := range resp.Results {
		// The distributed drain is value-identical to the single-node one,
		// so the HTTP answer equals the local exact evaluation outright.
		if r.Estimate != exact[i] {
			t.Fatalf("result %d: %g over shards, %g locally", i, r.Estimate, exact[i])
		}
	}

	// /stats carries the shard fan-out section with all shards seen.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Dist == nil || stats.Dist.Shards != 4 {
		t.Fatalf("stats dist section: %+v", stats.Dist)
	}
	var reqs int64
	for _, sh := range stats.Dist.Health {
		reqs += sh.Requests
		if sh.Errors != 0 {
			t.Fatalf("healthy shard %d reports errors: %+v", sh.Shard, sh)
		}
	}
	if reqs == 0 {
		t.Fatal("no shard traffic recorded after a full query")
	}
}

// TestStatsShardWireVersions pins /stats diagnostics.shard_wire_versions on
// a 2-shard coordinator: one entry per shard, each the version negotiated.
// OpenDistributed fetches every shard's metadata before it returns, so the
// shards read 2 before the first drain already, and still after it.
func TestStatsShardWireVersions(t *testing.T) {
	h, _, _ := distHandlerN(t, 2)
	versions := func() []uint16 {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var stats struct {
			Diagnostics map[string]json.RawMessage `json:"diagnostics"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		var v []uint16
		if err := json.Unmarshal(stats.Diagnostics["shard_wire_versions"], &v); err != nil {
			t.Fatalf("diagnostics.shard_wire_versions: %v in %s", err, rec.Body)
		}
		return v
	}
	want := []uint16{2, 2}
	if got := versions(); !slices.Equal(got, want) {
		t.Fatalf("shard wire versions before the first drain: %v, want %v", got, want)
	}
	if rec := postQuery(t, h, `{"statements": "`+distStatements+`"}`); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := versions(); !slices.Equal(got, want) {
		t.Fatalf("shard wire versions after a drain: %v, want %v", got, want)
	}
}

func TestQueryShardLossReturns206WithBounds(t *testing.T) {
	h, exact, servers := distHandler(t)
	// Kill one shard before the request: its coefficients become skips, the
	// answer degrades to 206 with Theorem-1 bounds covering the residual.
	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	rec := postQuery(t, h, `{"statements": "`+distStatements+`"}`)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Exact || resp.Skipped == 0 {
		t.Fatalf("degraded=%v exact=%v skipped=%d", resp.Degraded, resp.Exact, resp.Skipped)
	}
	for i, r := range resp.Results {
		if r.Bound == nil {
			t.Fatalf("degraded result %d without a bound", i)
		}
		if errAbs := math.Abs(r.Estimate - exact[i]); errAbs > *r.Bound*(1+1e-9)+1e-9 {
			t.Fatalf("result %d: error %g exceeds bound %g", i, errAbs, *r.Bound)
		}
	}

	// /stats marks the dead shard.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Dist == nil {
		t.Fatal("stats dist section missing")
	}
	sh := stats.Dist.Health[2]
	if sh.Errors == 0 || sh.DegradedKeys == 0 || sh.LastError == "" {
		t.Fatalf("dead shard ledger unmarked in /stats: %+v", sh)
	}
	if stats.Dist.DegradedKeys != int64(resp.Skipped) {
		t.Fatalf("stats degraded %d keys, response skipped %d", stats.Dist.DegradedKeys, resp.Skipped)
	}
}

// TestStatsCoefficientsSurviveShardLoss: a coordinator's /stats coefficients
// is the count of the file its shards serve, fixed when it opened: it asks no
// shard, so with one shard stopped it still reads the local file's count.
func TestStatsCoefficientsSurviveShardLoss(t *testing.T) {
	path := servedFile(t, 400, 7)
	local, err := repro.OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = local.Close() })
	addrs := make([]string, 2)
	servers := make([]*repro.ShardServer, 2)
	for i := range addrs {
		db, err := repro.OpenLayout(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
		if servers[i], err = db.NewShardServer(i, len(addrs), nil); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = servers[i].Serve(ln) }()
		t.Cleanup(func() { _ = servers[i].Close() })
		addrs[i] = ln.Addr().String()
	}
	ddb, err := repro.OpenDistributed(addrs, repro.DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ddb.Close() })
	h := New(ddb, Options{})
	t.Cleanup(h.Close)
	coefficients := func() int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var stats StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		return stats.Coefficients
	}
	want := local.NonzeroCoefficients()
	if got := coefficients(); got != want {
		t.Fatalf("/stats coefficients %d over live shards, the file holds %d", got, want)
	}
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	if got := coefficients(); got != want {
		t.Fatalf("/stats coefficients %d with shard 1 stopped, the file holds %d", got, want)
	}
}
