package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// layoutHandler serves a layout-backed database: the in-memory fixture is
// persisted as a .wvls layout and reopened from disk.
func layoutHandler(t *testing.T) (*Handler, []float64) {
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
	if err := db.SaveLayout(path, repro.LayoutOptions{HotCount: 8, BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	ldb, err := repro.OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ldb.Close() })
	h := New(ldb, Options{})
	t.Cleanup(h.Close)
	return h, truth
}

// TestLayoutBackedServer pins the wvqd -layout serving path: queries answer
// correctly from the on-disk layout and /stats carries the layout section
// with live tier counters.
func TestLayoutBackedServer(t *testing.T) {
	h, truth := layoutHandler(t)
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
	if stats.Layout.Slots == 0 || stats.Layout.HotSlots != 8 {
		t.Fatalf("layout stats = %+v", stats.Layout)
	}
	if want := "layout → coalesce"; stats.StoreStack != want {
		t.Fatalf("store_stack = %q, want %q", stats.StoreStack, want)
	}
	if stats.Layout.HotHits+stats.Layout.ColdHits == 0 {
		t.Fatal("query did not count any tiered hits")
	}
	if stats.Dist != nil {
		t.Fatal("layout-backed database must not report a dist section")
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
