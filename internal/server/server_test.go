package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

func testHandler(t *testing.T) (*Handler, *repro.Database, []float64) {
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
	h := New(db, Options{})
	t.Cleanup(h.Close)
	return h, db, truth
}

func postQuery(t *testing.T, h *Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestQueryExact(t *testing.T) {
	h, _, truth := testHandler(t)
	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Exact {
		t.Fatal("expected exact response")
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for i, r := range resp.Results {
		if math.Abs(r.Estimate-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("result %d: %g want %g", i, r.Estimate, truth[i])
		}
		if r.Bound != nil {
			t.Fatal("exact responses must not carry bounds")
		}
	}
	if resp.Retrieved != resp.Distinct {
		t.Fatalf("retrieved %d != distinct %d", resp.Retrieved, resp.Distinct)
	}
}

func TestQueryProgressiveCarriesBounds(t *testing.T) {
	h, _, truth := testHandler(t)
	rec := postQuery(t, h, `{"statements": "SUM(salary) WHERE age <= 15", "budget": 3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Exact || resp.Retrieved != 3 {
		t.Fatalf("unexpected progressive state: %+v", resp)
	}
	r := resp.Results[0]
	if r.Bound == nil {
		t.Fatal("progressive response missing bound")
	}
	if actual := math.Abs(r.Estimate - truth[1]); actual > *r.Bound+1e-9 {
		t.Fatalf("actual error %g exceeds bound %g", actual, *r.Bound)
	}
}

func TestQueryGroupBy(t *testing.T) {
	h, _, _ := testHandler(t)
	rec := postQuery(t, h, `{"statements": "COUNT() GROUP BY age(16)"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("group count = %d", len(resp.Results))
	}
	total := resp.Results[0].Estimate + resp.Results[1].Estimate
	if math.Abs(total-3) > 1e-6 {
		t.Fatalf("group totals = %g", total)
	}
}

func TestQueryErrors(t *testing.T) {
	h, _, _ := testHandler(t)
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"statements": "FROB()"}`, http.StatusBadRequest},
		{`{"statements": ""}`, http.StatusBadRequest},
		{`{"statements": "COUNT()", "budget": -1}`, http.StatusBadRequest},
		{`{"statements": "COUNT()", "bogus": 1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := postQuery(t, h, c.body)
		if rec.Code != c.want {
			t.Errorf("%q: status %d, want %d", c.body, rec.Code, c.want)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	h, db, _ := testHandler(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != db.TupleCount() || stats.Filter != "Db4" {
		t.Fatalf("stats = %+v", stats)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("ok")) {
		t.Fatal("healthz failed")
	}
}

func TestRouting(t *testing.T) {
	h, _, _ := testHandler(t)
	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/query", http.StatusNotFound},
		{http.MethodPost, "/stats", http.StatusNotFound},
		{http.MethodGet, "/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != c.want {
			t.Errorf("%s %s: %d, want %d", c.method, c.path, rec.Code, c.want)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	h, _, truth := testHandler(t)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				rec := postQuery(t, h, `{"statements": "SUM(salary) WHERE age <= 15"}`)
				if rec.Code != http.StatusOK {
					done <- errFromBody(rec)
					return
				}
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					done <- err
					return
				}
				if math.Abs(resp.Results[0].Estimate-truth[1]) > 1e-6*(1+truth[1]) {
					done <- errFromBody(rec)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errFromBody(rec *httptest.ResponseRecorder) error {
	return &bodyError{rec.Body.String()}
}

type bodyError struct{ s string }

func (e *bodyError) Error() string { return e.s }
