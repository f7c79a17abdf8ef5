package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// mvccHandler builds a handler over an MVCC-enabled database with recorded
// quantization windows, ready for both JSON and CSV ingest.
func mvccHandler(t *testing.T) (*Handler, *repro.Database) {
	t.Helper()
	db := mvccDatabase(t)
	h := New(db, Options{})
	t.Cleanup(h.Close)
	return h, db
}

// mvccDatabase is mvccHandler's database before a handler wraps it.
func mvccDatabase(t testing.TB) *repro.Database {
	t.Helper()
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	dist.AddTuple([]int{10, 20})
	dist.AddTuple([]int{12, 25})
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableMVCC(repro.MVCCConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := db.SetWindows([][2]float64{{0, 32}, {0, 32}}); err != nil {
		t.Fatal(err)
	}
	return db
}

func postIngest(t *testing.T, h *Handler, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestIngestJSON(t *testing.T) {
	h, db := mvccHandler(t)
	before := db.TupleCount()
	rec := postIngest(t, h, "application/json",
		`{"tuples": [{"coords": [5, 5]}, {"coords": [6, 6], "weight": 3}, {"coords": [10, 20], "weight": -1}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 1 || resp.Applied != 3 {
		t.Fatalf("response %+v, want version 1 applied 3", resp)
	}
	// +1 +3 -1 = +3 net tuples, one version for the whole batch.
	if resp.Tuples != before+3 || db.TupleCount() != before+3 {
		t.Fatalf("tuples %d (db %d), want %d", resp.Tuples, db.TupleCount(), before+3)
	}
	if db.Version() != 1 {
		t.Fatalf("db at version %d, want 1", db.Version())
	}
}

func TestIngestCSV(t *testing.T) {
	h, db := mvccHandler(t)
	before := db.TupleCount()
	csv := "age,salary\n1.0,2.0\n3.5,4.5\nnope,1\n7.0,8.0\n"
	rec := postIngest(t, h, "text/csv", csv)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 3 || resp.Skipped != 1 {
		t.Fatalf("applied %d skipped %d, want 3 and 1", resp.Applied, resp.Skipped)
	}
	if db.TupleCount() != before+3 {
		t.Fatalf("tuple count %d, want %d", db.TupleCount(), before+3)
	}
	if resp.Version == 0 {
		t.Fatal("CSV ingest published no version")
	}
}

func TestIngestValidation(t *testing.T) {
	h, _ := mvccHandler(t)
	cases := []struct {
		name, ct, body string
	}{
		{"empty", "application/json", `{"tuples": []}`},
		{"unknown field", "application/json", `{"rows": []}`},
		{"malformed", "application/json", `{`},
		{"bad arity", "application/json", `{"tuples": [{"coords": [1]}]}`},
		{"out of range", "application/json", `{"tuples": [{"coords": [99, 0]}]}`},
	}
	for _, tc := range cases {
		if rec := postIngest(t, h, tc.ct, tc.body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
		}
	}
	// Bad batches must not publish.
	var stats StatsResponse
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Mvcc == nil || stats.Mvcc.Version != 0 {
		t.Fatalf("failed ingests moved the version: %+v", stats.Mvcc)
	}
}

func TestIngestRequiresMVCC(t *testing.T) {
	h, _, _ := testHandler(t) // a built database without MVCC is read-only
	rec := postIngest(t, h, "application/json", `{"tuples": [{"coords": [1, 1]}]}`)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status %d, want 403 (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "-mvcc") {
		t.Fatalf("403 body should point at the -mvcc flag: %s", rec.Body)
	}
}

func TestIngestReadOnlyView(t *testing.T) {
	h, _ := layoutHandler(t, repro.Stack{})
	rec := postIngest(t, h, "application/json", `{"tuples": [{"coords": [1, 1]}]}`)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status %d, want 403 (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "read-only") {
		t.Fatalf("403 body should say read-only: %s", rec.Body)
	}
}

func TestQueryVersionPinning(t *testing.T) {
	h, _ := mvccHandler(t)
	const stmt = `{"statements": "COUNT() WHERE age <= 31"}`

	query := func(target string) (QueryResponse, int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(stmt))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var resp QueryResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return resp, rec.Code
	}

	resp, code := query("/query")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Version == nil || *resp.Version != 0 {
		t.Fatalf("version = %v, want 0", resp.Version)
	}
	count0 := resp.Results[0].Estimate

	// Publish 3 versions of one tuple each.
	for i := 0; i < 3; i++ {
		rec := postIngest(t, h, "application/json",
			fmt.Sprintf(`{"tuples": [{"coords": [%d, %d]}]}`, i+1, i+1))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}

	// The head sees all three inserts; pinned version 1 sees exactly one.
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6*(1+math.Abs(want)) }
	resp, _ = query("/query")
	if *resp.Version != 3 || !near(resp.Results[0].Estimate, count0+3) {
		t.Fatalf("head: version %d estimate %v, want 3 and ~%v", *resp.Version, resp.Results[0].Estimate, count0+3)
	}
	resp, code = query("/query?version=1")
	if code != http.StatusOK {
		t.Fatalf("pinned query status %d", code)
	}
	if *resp.Version != 1 || !near(resp.Results[0].Estimate, count0+1) {
		t.Fatalf("pinned: version %d estimate %v, want 1 and ~%v", *resp.Version, resp.Results[0].Estimate, count0+1)
	}

	if _, code = query("/query?version=99"); code != http.StatusNotFound {
		t.Fatalf("unretained version: status %d, want 404", code)
	}
	if _, code = query("/query?version=bogus"); code != http.StatusBadRequest {
		t.Fatalf("unparsable version: status %d, want 400", code)
	}
}

func TestQueryVersionRequiresMVCC(t *testing.T) {
	h, _, _ := testHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/query?version=1",
		strings.NewReader(`{"statements": "COUNT() WHERE age <= 15"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", rec.Code, rec.Body)
	}
}

func TestStatsCarriesMVCC(t *testing.T) {
	h, _ := mvccHandler(t)
	if rec := postIngest(t, h, "application/json", `{"tuples": [{"coords": [2, 2]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mvcc == nil {
		t.Fatal("stats missing mvcc section on an MVCC database")
	}
	if resp.Mvcc.Version != 1 || resp.Mvcc.Applies != 1 {
		t.Fatalf("mvcc stats %+v, want version 1 applies 1", resp.Mvcc)
	}
	if resp.Ingested != 1 {
		t.Fatalf("ingested %d, want 1", resp.Ingested)
	}
}

// TestIngestOversizedBatch pins the request guardrails: more tuples than the
// cap is a 400, not an unbounded allocation.
func TestIngestOversizedBatch(t *testing.T) {
	h, _ := mvccHandler(t)
	var buf bytes.Buffer
	buf.WriteString(`{"tuples": [`)
	for i := 0; i <= maxIngestTuples; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"coords":[1,1]}`)
	}
	buf.WriteString(`]}`)
	rec := postIngest(t, h, "application/json", buf.String())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}
