package server

import (
	"bytes"
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
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

// TestPrintedStacksMatchDesign builds every shape wvqd serves the way wvqd
// builds it — open (every mode maps the .wvls file), then EnableMVCC as the
// flags ask, SetStack with the
// fault, retry and timing layers they declare, then the handler — and checks
// StoreStack() against the table DESIGN.md §11 prints, so the two change
// together. The dense file is as dense as the benchmark's (≈ 3/4 of the
// cells), over the 7/32 of the domain past which Save writes the dense
// shape; the sparse file is under it.
func TestPrintedStacksMatchDesign(t *testing.T) {
	rows := designStacks(t)
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
	shapes := []struct {
		shape string
		open  func() *repro.Database
		mvcc  bool
		chaos *repro.FaultConfig
		retry *repro.RetryConfig
	}{
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
	}
	// One row is checked below: the shard server's.
	if len(rows) != len(shapes)+1 {
		t.Fatalf("DESIGN.md §11 prints %d shapes; the test builds %d and one shard server", len(rows), len(shapes))
	}
	for _, c := range shapes {
		db := c.open()
		t.Cleanup(func() { _ = db.Close() })
		if c.mvcc {
			if err := db.EnableMVCC(repro.MVCCConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		db.SetStack(repro.Stack{Fault: c.chaos, Retry: c.retry, Instrument: true})
		h := New(db, Options{})
		t.Cleanup(h.Close)
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
