package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// layoutHandler serves a layout-backed database: the in-memory fixture is
// persisted as a .wvls layout and mapped from disk, served through the
// declared stack.
func layoutHandler(t *testing.T, stack repro.Stack) (*Handler, []float64) {
	t.Helper()
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	dist.AddTuple([]int{10, 20})
	dist.AddTuple([]int{12, 25})
	dist.AddTuple([]int{30, 5})
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := repro.ParseBatch(schema, "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15")
	if err != nil {
		t.Fatal(err)
	}
	truth := batch.EvaluateDirect(dist)
	path := filepath.Join(t.TempDir(), "db.wvls")
	if err := db.SaveLayout(path, repro.LayoutOptions{BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	ldb, err := repro.OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ldb.Close() })
	ldb.SetStack(stack)
	h := New(ldb, Options{})
	t.Cleanup(h.Close)
	return h, truth
}

// TestLayoutBackedServer pins the wvqd -db serving path of a .wvls file:
// queries answer correctly from the mapped layout, with no coalescing layer
// over it (a mapped read is a page-cache load), and /stats carries the
// layout section with live tier counters.
func TestLayoutBackedServer(t *testing.T) {
	h, truth := layoutHandler(t, repro.Stack{})
	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	for i, r := range qr.Results {
		if diff := r.Estimate - truth[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("query %d: estimate %v, want %v", i, r.Estimate, truth[i])
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	var stats StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Layout == nil {
		t.Fatalf("/stats has no layout section: %s", srec.Body)
	}
	// Three tuples leave most of the 32×32 domain zero: the sparse shape.
	if stats.Layout.Dense || stats.Layout.Slots == 0 {
		t.Fatalf("layout stats = %+v", stats.Layout)
	}
	if want := "layout → instrument"; stats.StoreStack != want {
		t.Fatalf("store_stack = %q, want %q", stats.StoreStack, want)
	}
	if stats.Layout.ColdHits == 0 {
		t.Fatal("query did not count any layout hits")
	}
	if stats.Dist != nil {
		t.Fatal("layout-backed database must not report a dist section")
	}
}

// TestDenseLayoutBackedServer pins the other shape end to end: a database
// dense enough is written as an array, answers exactly what the in-memory
// database answers, and /stats says which shape it serves.
func TestDenseLayoutBackedServer(t *testing.T) {
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	db, err := repro.NewDatabase(repro.UniformData(schema, 300, 5), repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.wvls")
	if err := db.SaveLayout(path, repro.LayoutOptions{BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	ldb, err := repro.OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ldb.Close() })
	h := New(ldb, Options{})
	t.Cleanup(h.Close)
	const statements = "COUNT() WHERE age <= 15; SUM(salary) WHERE age >= 7"
	batch, err := repro.ParseBatch(schema, statements)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	// The server's answer sums in schedule order, Exact in key order: equal
	// to rounding.
	want := db.Exact(plan)
	rec := postQuery(t, h, `{"statements": "`+statements+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	for i, r := range qr.Results {
		if math.Abs(r.Estimate-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("query %d: estimate %v, in-memory exact %v", i, r.Estimate, want[i])
		}
	}

	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	l := stats.Layout
	if l == nil || !l.Dense || l.Slots != 32*32 || l.ColdHits == 0 {
		t.Fatalf("layout stats = %+v, want a dense file served from its blocks", l)
	}
	if l.VerifiedBlocks == 0 || int64(l.VerifiedBlocks) != l.BlockLoads {
		t.Fatalf("%d blocks verified in %d checks, want each checked once", l.VerifiedBlocks, l.BlockLoads)
	}
	if !strings.Contains(srec.Body.String(), `"dense": true`) {
		t.Fatalf("/stats does not name the shape: %s", srec.Body)
	}
}

// TestLayoutStatsAbsentForMemoryDB pins the omitempty contract.
func TestLayoutStatsAbsentForMemoryDB(t *testing.T) {
	h, _, _ := testHandler(t)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), `"layout"`) {
		t.Fatalf("/stats for an in-memory db leaked a layout section: %s", rec.Body)
	}
}
