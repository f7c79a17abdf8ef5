package server

// The bytes the daemon serves, pinned: every /prepare and /query body of a
// fixed request script, over each way wvqd builds a view (and a loaded
// one), must equal the file under testdata/served. A change that is meant
// to move no number — a different store under a mode, a refactor of the
// step loop — passes it untouched; run with -update only when a body is
// meant to change.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite testdata/served/*.golden from this build's /prepare and /query bodies")

const (
	servedPrepared = "COUNT() WHERE x <= 40; SUM(y) WHERE x BETWEEN 5 AND 57 GROUP BY y(8); COUNT() WHERE y BETWEEN 10 AND 50"
	servedAdhoc    = "SUM(x) WHERE y >= 9 GROUP BY x(4); COUNT() WHERE x BETWEEN 3 AND 30"
)

// servedFile writes a .wvls of tuples seeded tuples over a 64×64 domain and
// returns its path: 400 tuples fill 94 % of the cells (a rank file, the
// golden named dense), 4 fill 14 %, under the 14.5 % of this domain from
// which Save writes rank records (a key directory, the golden named
// sparse).
func servedFile(t *testing.T, tuples int, seed int64) string {
	t.Helper()
	schema, err := repro.NewSchema([]string{"x", "y"}, []int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	db, err := repro.NewDatabase(repro.UniformData(schema, tuples, seed), repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("served-%d.wvls", tuples))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// servedShards opens path once per shard, as `wvqd -db path -shard-listen`
// does, serves shard i of count on a loopback listener, and opens the
// coordinator over them.
func servedShards(t *testing.T, path string, count int) *repro.Database {
	t.Helper()
	addrs := make([]string, count)
	for i := range addrs {
		db, err := repro.OpenLayout(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
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
	}
	ddb, err := repro.OpenDistributed(addrs, repro.DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ddb
}

// TestServedBodiesMatchGolden drives the handler over a mapped dense and a
// mapped sparse -db, the sparse file loaded into memory, a -db -mvcc after
// two writes, and 2- and 4-shard coordinators over each file: /prepare of
// one batch, its handle at budgets 0, 1, 500 and the whole master list, then
// an ad hoc batch at budgets 0 and 300. The loaded file and the coordinators
// must serve the mapped file's bodies, and the -mvcc daemon before its
// writes must too, "version" aside.
func TestServedBodiesMatchGolden(t *testing.T) {
	dense, sparse := servedFile(t, 400, 7), servedFile(t, 4, 7)
	open := func(path string) func(*testing.T) *repro.Database {
		return func(t *testing.T) *repro.Database {
			db, err := repro.OpenLayout(path)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
	}
	configs := []struct {
		name   string
		golden string // the golden file's name, when not the config's
		open   func(*testing.T) *repro.Database
		// write, when set, runs before the checked script; a second open of
		// the config, left at version 0, must first serve db_sparse's bodies.
		write func(*testing.T, *repro.Database)
	}{
		{name: "db_dense", open: open(dense)},
		{name: "db_sparse", open: open(sparse)},
		{name: "loaded_sparse", golden: "db_sparse", open: func(t *testing.T) *repro.Database {
			file, err := os.ReadFile(sparse)
			if err != nil {
				t.Fatal(err)
			}
			db, err := repro.LoadDatabase(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{name: "db_mvcc", open: func(t *testing.T) *repro.Database {
			db := open(sparse)(t)
			if err := db.EnableMVCC(repro.MVCCConfig{}); err != nil {
				t.Fatal(err)
			}
			return db
		}, write: func(t *testing.T, db *repro.Database) {
			for i, coords := range [][]int{{3, 60}, {41, 17}} {
				if _, err := db.Apply(context.Background(), repro.NewWriteBatch().Add(coords, float64(i+2))); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "shards_dense", golden: "db_dense", open: func(t *testing.T) *repro.Database { return servedShards(t, dense, 2) }},
		{name: "shards_sparse", golden: "db_sparse", open: func(t *testing.T) *repro.Database { return servedShards(t, sparse, 2) }},
		{name: "shards4_dense", golden: "db_dense", open: func(t *testing.T) *repro.Database { return servedShards(t, dense, 4) }},
		{name: "shards4_sparse", golden: "db_sparse", open: func(t *testing.T) *repro.Database { return servedShards(t, sparse, 4) }},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			db := c.open(t)
			t.Cleanup(func() { _ = db.Close() })
			if c.write != nil {
				want, err := os.ReadFile(filepath.Join("testdata", "served", "db_sparse.golden"))
				if err != nil {
					t.Fatal(err)
				}
				v0 := c.open(t)
				t.Cleanup(func() { _ = v0.Close() })
				if got := versionLine.ReplaceAllString(servedScript(t, v0), ""); got != string(want) {
					t.Fatalf("version 0 does not serve db_sparse's bodies:\n%s", firstDifference(got, string(want)))
				}
				c.write(t, db)
			}
			got := servedScript(t, db)
			golden := filepath.Join("testdata", "served", cmp.Or(c.golden, c.name)+".golden")
			if *update && c.golden == "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Fatalf("served bodies moved from %s:\n%s", golden, firstDifference(got, string(want)))
			}
		})
	}
}

// versionLine is the "version" field of an indented /query body.
var versionLine = regexp.MustCompile(`(?m)^  "version": \d+,\n`)

// servedScript runs the request script against a fresh handler over db and
// returns every request with the status and body it got.
func servedScript(t *testing.T, db *repro.Database) string {
	t.Helper()
	h := New(db, Options{})
	defer h.Close()
	var out strings.Builder
	post := func(path, body string) []byte {
		rec := postJSON(t, h, path, body, nil)
		fmt.Fprintf(&out, "POST %s %s\n%d %s", path, body, rec.Code, rec.Body.Bytes())
		if rec.Code != 200 {
			t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var prep PrepareResponse
	if err := json.Unmarshal(post("/prepare", `{"statements": `+jsonString(servedPrepared)+`}`), &prep); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 500, prep.Distinct} {
		post("/query", fmt.Sprintf(`{"handle": %q, "budget": %d}`, prep.Handle, budget))
	}
	for _, budget := range []int{0, 300} {
		post("/query", fmt.Sprintf(`{"statements": %s, "budget": %d}`, jsonString(servedAdhoc), budget))
	}
	return out.String()
}

// firstDifference prints the first line on which got and want differ.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
