package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
)

// prefixes drains a fresh run in batches of 16 and returns the estimates
// after every batch.
func prefixes(t *testing.T, db *repro.Database, plan *repro.Plan) [][]float64 {
	t.Helper()
	var out [][]float64
	run := db.NewRun(plan, repro.SSE())
	for !run.Done() {
		if _, err := run.StepBatchCtx(context.Background(), 16); err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]float64(nil), run.Estimates()...))
	}
	return out
}

// TestInjectFaultsRestoreKeepsServerLayers: clearing Fault on the current
// stack removes the injector and nothing else. On a plain database the
// restore used to rewind the store to what it was before the faults went in,
// dropping the coalescer the server had put on since.
func TestInjectFaultsRestoreKeepsServerLayers(t *testing.T) {
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := repro.NewDatabase(repro.UniformData(schema, 300, 5), repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.wvls")
	if err := plain.SaveLayout(path, repro.LayoutOptions{BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	layout, err := repro.OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = layout.Close() })
	batch, err := repro.ParseBatch(schema, "COUNT() WHERE age <= 15; SUM(salary) WHERE age >= 7")
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*repro.Database{"plain": plain, "layout": layout} {
		plan, err := db.Plan(batch)
		if err != nil {
			t.Fatal(err)
		}
		want := prefixes(t, db, plan)

		db.SetStack(repro.Stack{Fault: &repro.FaultConfig{ErrorRate: 0.5, Seed: 9}})
		h := New(db, Options{})
		t.Cleanup(h.Close)
		if _, coalescing := db.CoalescingStats(); !coalescing {
			t.Fatalf("%s: served without coalescing (stack %s)", name, db.StoreStack())
		}
		stack := db.Stack()
		stack.Fault = nil
		db.SetStack(stack)
		if _, ok := db.CoalescingStats(); !ok {
			t.Fatalf("%s: after restore coalescing %v (stack %s)", name, ok, db.StoreStack())
		}
		got := prefixes(t, db, plan)
		if len(got) != len(want) {
			t.Fatalf("%s: %d prefixes after restore, %d before", name, len(got), len(want))
		}
		for i := range want {
			for q := range want[i] {
				if math.Float64bits(got[i][q]) != math.Float64bits(want[i][q]) {
					t.Fatalf("%s prefix %d query %d: %v after restore, %v fault-free", name, i, q, got[i][q], want[i][q])
				}
			}
		}
	}
}

// designStacks reads the printed-stack table of DESIGN.md §11: shape →
// store_stack, one row each.
func designStacks(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| shape | `store_stack` |\n")
	if !ok {
		t.Fatal("DESIGN.md has no printed-stack table")
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(strings.TrimSpace(line), "|")
		if len(cells) != 4 {
			break
		}
		if shape := strings.TrimSpace(cells[1]); shape != "---" {
			rows[shape] = strings.Trim(strings.TrimSpace(cells[2]), "`")
		}
	}
	return rows
}

// wvqdShape is one query-serving shape of DESIGN.md §11's printed-stack
// table, opened and configured the way wvqd does it.
type wvqdShape struct {
	shape string
	open  func() *repro.Database
	mvcc  bool
	chaos *repro.FaultConfig
	retry *repro.RetryConfig
}

// serve builds the shape as wvqd builds it — open (every mode maps the
// .wvls file), then EnableMVCC as the flags ask, SetStack with the fault
// and retry layers they declare, then the handler.
func (c wvqdShape) serve(t *testing.T) (*repro.Database, *Handler) {
	t.Helper()
	db := c.open()
	t.Cleanup(func() { _ = db.Close() })
	if c.mvcc {
		if err := db.EnableMVCC(repro.MVCCConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	db.SetStack(repro.Stack{Fault: c.chaos, Retry: c.retry})
	h := New(db, Options{})
	t.Cleanup(h.Close)
	return db, h
}

// wvqdShapes returns every query-serving shape of the table, over a dense
// file as dense as the benchmark's (≈ 3/4 of the cells, over the 7/32 of the
// domain past which Save writes the dense shape) and a sparse one under it,
// with the two shard servers the `-shards` row dials, and the schema of
// both files.
func wvqdShapes(t *testing.T) ([]wvqdShape, []*repro.ShardServer, *repro.Schema) {
	t.Helper()
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	save := func(tuples int) []byte {
		db, err := repro.NewDatabase(repro.UniformData(schema, tuples, 5), repro.Db4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dense, sparse := save(30), save(1) // 776 and 132 of 1 024 cells
	// Every mode maps the file.
	open := func(file []byte) func() *repro.Database {
		path := filepath.Join(t.TempDir(), "db.wvls")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		return func() *repro.Database {
			db, err := repro.OpenLayout(path)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
	}
	shards := make([]*repro.ShardServer, 2)
	addrs := make([]string, len(shards))
	openDense := open(dense)
	for i := range shards {
		db := openDense()
		t.Cleanup(func() { _ = db.Close() })
		if shards[i], err = db.NewShardServer(i, len(shards), nil); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func(ss *repro.ShardServer) { _ = ss.Serve(ln) }(shards[i])
		t.Cleanup(func() { _ = shards[i].Close() })
		addrs[i] = ln.Addr().String()
	}
	chaos := &repro.FaultConfig{ErrorEvery: 3}
	return []wvqdShape{
		{shape: "`-db`, dense file", open: open(dense)},
		{shape: "`-db`, sparse file", open: open(sparse)},
		{shape: "`-db -mvcc`, sparse file", open: open(sparse), mvcc: true},
		{shape: "`-layout`", open: open(dense)},
		{shape: "`-db -chaos-* -retry-*`", open: open(dense), chaos: chaos, retry: &repro.RetryConfig{MaxAttempts: 8}},
		{shape: "`-db -mvcc -chaos-*`", open: open(dense), mvcc: true, chaos: chaos},
		{shape: "`-shards`, 2 shards", open: func() *repro.Database {
			db, err := repro.OpenDistributed(addrs, repro.DistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
	}, shards, schema
}

// TestPrintedStacksMatchDesign builds every shape wvqd serves the way wvqd
// builds it (wvqdShape.serve) and checks StoreStack() against the table
// DESIGN.md §11 prints, so the two change together.
func TestPrintedStacksMatchDesign(t *testing.T) {
	rows := designStacks(t)
	shapes, shards, _ := wvqdShapes(t)
	// One row is checked below: the shard server's.
	if len(rows) != len(shapes)+1 {
		t.Fatalf("DESIGN.md §11 prints %d shapes; the test builds %d and one shard server", len(rows), len(shapes))
	}
	for _, c := range shapes {
		db, _ := c.serve(t)
		if got, want := db.StoreStack(), rows[c.shape]; got != want {
			t.Errorf("%s: serves %q, DESIGN.md §11 prints %q", c.shape, got, want)
		}
	}
	for i, ss := range shards {
		if got, want := ss.StoreStack(), rows["`-shard-listen`, one of 2 shards"]; got != want {
			t.Errorf("shard %d of 2: serves %q, DESIGN.md §11 prints %q", i, got, want)
		}
	}
}

// retrievalCounts is what TestStatsRetrievalsPerMode reads after each step:
// /stats retrievals and coalescing, and the exported retrieval counter.
type retrievalCounts struct {
	stats, metric   int64
	fetched, shared int64
}

// minus is the difference of two readings.
func (c retrievalCounts) minus(d retrievalCounts) retrievalCounts {
	return retrievalCounts{c.stats - d.stats, c.metric - d.metric, c.fetched - d.fetched, c.shared - d.shared}
}

// TestStatsRetrievalsPerMode drives one exact /query drain through every
// shape wvqd serves and reads /stats retrievals around it. On every shape it
// moves with wvq_storage_batchget_keys_total and with the coalescing
// layer's fetches where there is one — the count is of the keys asked
// beneath the coalescer — and on the fault-free shapes by the plan's
// distinct coefficients, once each. Under -mvcc after an /ingest, keys the
// overlay answers leave the count: a drain moves it by the profile's
// mvcc_base. Over shards, concurrent drains that share fetches count each
// shared fetch once.
func TestStatsRetrievalsPerMode(t *testing.T) {
	shapes, _, schema := wvqdShapes(t)
	const stmts = "COUNT() WHERE age <= 15; SUM(salary) WHERE age >= 7"
	batch, err := repro.ParseBatch(schema, stmts)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"statements": "` + stmts + `", "budget": 0}`
	for _, c := range shapes {
		t.Run(c.shape, func(t *testing.T) {
			db, h := c.serve(t)
			plan, err := db.Plan(batch)
			if err != nil {
				t.Fatal(err)
			}
			distinct := int64(plan.DistinctCoefficients())
			o := observe(t, h)
			read := func() retrievalCounts {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
				var st StatsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatalf("/stats: %v: %s", err, rec.Body)
				}
				return retrievalCounts{
					stats:   st.Retrievals,
					metric:  int64(o.Registry.Snapshot()["wvq_storage_batchget_keys_total"]),
					fetched: st.Coalescing.Fetched,
					shared:  st.Coalescing.Coalesced,
				}
			}
			_, coalesces := db.CoalescingStats()
			// check asserts what holds on every shape: the three physical
			// readings agree.
			check := func(what string, d retrievalCounts) {
				t.Helper()
				if d.metric != d.stats {
					t.Errorf("%s: wvq_storage_batchget_keys_total rose by %d, /stats retrievals by %d", what, d.metric, d.stats)
				}
				if coalesces && d.fetched != d.stats {
					t.Errorf("%s: the coalescer fetched %d keys, /stats retrievals rose by %d", what, d.fetched, d.stats)
				}
			}
			drain := func(query string) *QueryResponse {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query"+query, strings.NewReader(body)))
				if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
					t.Fatalf("/query: %d %s", rec.Code, rec.Body)
				}
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				return &resp
			}

			before := read()
			drain("")
			d := read().minus(before)
			check("one drain", d)
			if c.chaos == nil && d.stats != distinct {
				t.Errorf("one drain: /stats retrievals rose by %d, the plan has %d distinct coefficients", d.stats, distinct)
			}

			if c.mvcc && c.chaos == nil {
				if rec := postIngest(t, h, "application/json", `{"tuples": [{"coords": [3, 4]}, {"coords": [20, 9]}]}`); rec.Code != http.StatusOK {
					t.Fatalf("/ingest: %d %s", rec.Code, rec.Body)
				}
				before := read()
				resp := drain("?explain=1")
				d := read().minus(before)
				check("a drain after an ingest", d)
				base := resp.Profile.Tiers.MVCCBase
				if resp.Profile.Tiers.MVCCLayer == 0 {
					t.Fatal("after an ingest: the overlay answered none of the plan's keys")
				}
				if d.stats != base {
					t.Errorf("after an ingest: /stats retrievals rose by %d, the profile sent %d keys to the base (%d to the overlay)",
						d.stats, base, resp.Profile.Tiers.MVCCLayer)
				}
			}

			if c.shape == "`-shards`, 2 shards" {
				// Concurrent drains of one plan overlap; whatever they share,
				// the count is the coalescer's fetches.
				const drains = 4
				for round := 0; round < 20; round++ {
					before := read()
					var wg sync.WaitGroup
					for i := 0; i < drains; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							rec := postQuery(t, h, body)
							if rec.Code != http.StatusOK {
								t.Errorf("concurrent /query: %d %s", rec.Code, rec.Body)
							}
						}()
					}
					wg.Wait()
					d := read().minus(before)
					check("concurrent drains", d)
					if d.fetched+d.shared != drains*distinct {
						t.Fatalf("concurrent drains: the coalescer was asked %d keys, want %d", d.fetched+d.shared, drains*distinct)
					}
					if d.shared > 0 {
						return
					}
				}
				t.Log("no two concurrent drains shared a fetch in 20 rounds")
			}
		})
	}
}
