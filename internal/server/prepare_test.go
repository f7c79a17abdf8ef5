package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/sched"
)

func postJSON(t *testing.T, h *Handler, path, body string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func prepareBatch(t *testing.T, h *Handler, statements, tenant string) (PrepareResponse, int) {
	t.Helper()
	hdr := map[string]string{}
	if tenant != "" {
		hdr["X-Tenant"] = tenant
	}
	rec := postJSON(t, h, "/prepare", `{"statements": `+jsonString(statements)+`}`, hdr)
	var resp PrepareResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return resp, rec.Code
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// A prepared handle must execute to exactly the answers the same batch gives
// inline — bit-identical estimates, matched by query label since the handle
// path answers in canonical order.
func TestPrepareExecuteMatchesInline(t *testing.T) {
	h, _, _ := testHandler(t)
	const stmts = "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15"

	inline := postQuery(t, h, `{"statements": `+jsonString(stmts)+`}`)
	if inline.Code != http.StatusOK {
		t.Fatalf("inline: %d %s", inline.Code, inline.Body)
	}
	var want QueryResponse
	if err := json.Unmarshal(inline.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}

	prep, code := prepareBatch(t, h, stmts, "")
	if code != http.StatusOK {
		t.Fatalf("prepare: %d", code)
	}
	if prep.Handle == "" || prep.Queries != 2 || prep.Distinct != want.Distinct {
		t.Fatalf("prepare response %+v (want distinct %d)", prep, want.Distinct)
	}
	// The inline request already registered the batch transparently.
	if !prep.Cached {
		t.Fatal("prepare after inline execute should find the plan resident")
	}

	exec := postQuery(t, h, `{"handle": `+jsonString(prep.Handle)+`}`)
	if exec.Code != http.StatusOK {
		t.Fatalf("handle execute: %d %s", exec.Code, exec.Body)
	}
	var got QueryResponse
	if err := json.Unmarshal(exec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Exact || len(got.Results) != len(want.Results) {
		t.Fatalf("handle response %+v", got)
	}
	byLabel := map[string]float64{}
	for _, r := range want.Results {
		byLabel[r.Query] = r.Estimate
	}
	for _, r := range got.Results {
		wantEst, ok := byLabel[r.Query]
		if !ok {
			t.Fatalf("handle result label %q not in inline results", r.Query)
		}
		if r.Estimate != wantEst {
			t.Fatalf("label %q: handle %v != inline %v", r.Query, r.Estimate, wantEst)
		}
	}

	// Preparing again returns the same handle, still cached.
	again, code := prepareBatch(t, h, stmts, "")
	if code != http.StatusOK || again.Handle != prep.Handle || !again.Cached {
		t.Fatalf("re-prepare: %d %+v", code, again)
	}
}

// A permuted presentation of a prepared batch shares the resident plan, and
// inline results still come back in statement order.
func TestInlinePermutationSharesPlanAndKeepsOrder(t *testing.T) {
	h, _, truth := testHandler(t)
	a := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15"}`)
	b := postQuery(t, h, `{"statements": "SUM(salary) WHERE age <= 15; COUNT() WHERE age <= 15"}`)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d", a.Code, b.Code)
	}
	var ra, rb QueryResponse
	if err := json.Unmarshal(a.Body.Bytes(), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	// Statement order is preserved per request: the permuted batch answers
	// swapped relative to the first, both matching direct evaluation.
	if ra.Results[0].Estimate != rb.Results[1].Estimate || ra.Results[1].Estimate != rb.Results[0].Estimate {
		t.Fatalf("permuted results misaligned: %+v vs %+v", ra.Results, rb.Results)
	}
	for i, r := range ra.Results {
		if d := r.Estimate - truth[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("result %d: %g want %g", i, r.Estimate, truth[i])
		}
	}
	// One resident plan served both presentations.
	st := statsOf(t, h)
	if st.Prepared.Plans != 1 || st.Prepared.Hits < 1 {
		t.Fatalf("registry did not share the permuted plan: %+v", st.Prepared)
	}
}

func TestQueryHandleErrors(t *testing.T) {
	h, _, _ := testHandler(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"handle": "batch:deadbeefdeadbeef"}`, http.StatusNotFound},
		{`{"handle": "batch:deadbeefdeadbeef", "statements": "COUNT()"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := postQuery(t, h, c.body); rec.Code != c.want {
			t.Errorf("%q: status %d, want %d", c.body, rec.Code, c.want)
		}
	}
	// DELETE of an unknown handle is 404; empty handle path is 400.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/prepare/batch:nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("delete unknown: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/prepare/", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("delete empty: %d", rec.Code)
	}
}

// Handle execution streams exactly like inline batches.
func TestStreamAcceptsHandle(t *testing.T) {
	h, _, _ := testHandler(t)
	prep, code := prepareBatch(t, h, "SUM(salary) WHERE age <= 15", "")
	if code != http.StatusOK {
		t.Fatalf("prepare: %d", code)
	}
	rec := postJSON(t, h, "/query/stream", `{"handle": `+jsonString(prep.Handle)+`}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "event: done") {
		t.Fatalf("stream missing done event: %s", rec.Body)
	}
}

// Per-tenant quotas bound registrations: a tenant at its limit gets 429 until
// it deletes a handle (or its plan is evicted); other tenants are unaffected
// and re-preparing a resident batch is free.
func TestPrepareQuota(t *testing.T) {
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	dist.AddTuple([]int{10, 20})
	dist.AddTuple([]int{30, 5})
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	h := New(db, Options{Sched: sched.Config{MaxPreparedPerTenant: 1}})
	t.Cleanup(h.Close)

	const batchA = "COUNT() WHERE age <= 15"
	const batchB = "SUM(salary) WHERE age <= 20"

	pa, code := prepareBatch(t, h, batchA, "t1")
	if code != http.StatusOK {
		t.Fatalf("first prepare: %d", code)
	}
	if _, code = prepareBatch(t, h, batchB, "t1"); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota prepare: %d, want 429", code)
	}
	// Re-preparing the resident batch does not consume quota.
	if again, code := prepareBatch(t, h, batchA, "t1"); code != http.StatusOK || !again.Cached {
		t.Fatalf("re-prepare resident: %d %+v", code, again)
	}
	// Another tenant has its own budget.
	if _, code = prepareBatch(t, h, batchB, "t2"); code != http.StatusOK {
		t.Fatalf("tenant t2 blocked: %d", code)
	}
	// Deleting t1's handle releases its quota.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/prepare/"+pa.Handle, nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if _, code = prepareBatch(t, h, batchA, "t1"); code != http.StatusOK {
		t.Fatalf("prepare after delete: %d", code)
	}
}

func statsOf(t *testing.T, h *Handler) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// /stats surfaces the prepared tier: registry counters plus the execute mix.
func TestStatsPreparedSection(t *testing.T) {
	h, _, _ := testHandler(t)
	const stmts = "COUNT() WHERE age <= 15"
	prep, code := prepareBatch(t, h, stmts, "alice")
	if code != http.StatusOK {
		t.Fatalf("prepare: %d", code)
	}
	for i := 0; i < 3; i++ {
		if rec := postQuery(t, h, `{"handle": `+jsonString(prep.Handle)+`}`); rec.Code != http.StatusOK {
			t.Fatalf("handle exec %d: %d", i, rec.Code)
		}
	}
	for i := 0; i < 2; i++ {
		if rec := postQuery(t, h, `{"statements": `+jsonString(stmts)+`}`); rec.Code != http.StatusOK {
			t.Fatalf("inline exec %d: %d", i, rec.Code)
		}
	}
	st := statsOf(t, h).Prepared
	if st.Plans != 1 || st.Capacity != repro.DefaultPlanCacheCapacity {
		t.Fatalf("registry shape: %+v", st)
	}
	if st.PreparedExecutes != 3 || st.AdhocExecutes != 2 {
		t.Fatalf("execute mix: %+v", st)
	}
	// Prepare missed once (first registration); both inline executes hit.
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hit accounting: %+v", st)
	}
	if st.Tenants != 1 {
		t.Fatalf("tenants: %+v", st)
	}
}
