package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
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

// quotaHandler serves a small database under the given options.
func quotaHandler(t *testing.T, opts Options) *Handler {
	t.Helper()
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
	h := New(db, opts)
	t.Cleanup(h.Close)
	return h
}

// Per-tenant quotas bound registrations: a tenant at its limit gets 429 with
// Retry-After until it deletes a handle (or its plan is evicted); other
// tenants are unaffected, re-preparing a resident batch is free, and /stats
// counts the tenants holding plans.
func TestPrepareQuota(t *testing.T) {
	h := quotaHandler(t, Options{MaxPreparedPerTenant: 1})

	const batchA = "COUNT() WHERE age <= 15"
	const batchB = "SUM(salary) WHERE age <= 20"

	pa, code := prepareBatch(t, h, batchA, "t1")
	if code != http.StatusOK {
		t.Fatalf("first prepare: %d", code)
	}
	rec := postJSON(t, h, "/prepare", `{"statements": `+jsonString(batchB)+`}`, map[string]string{"X-Tenant": "t1"})
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("over-quota prepare: %d (Retry-After %q), want 429 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if n := statsOf(t, h).Prepared.Tenants; n != 1 {
		t.Fatalf("prepared.tenants %d after t1's registration, want 1", n)
	}
	// Re-preparing the resident batch does not consume quota.
	if again, code := prepareBatch(t, h, batchA, "t1"); code != http.StatusOK || !again.Cached {
		t.Fatalf("re-prepare resident: %d %+v", code, again)
	}
	// Another tenant has its own budget.
	if _, code = prepareBatch(t, h, batchB, "t2"); code != http.StatusOK {
		t.Fatalf("tenant t2 blocked: %d", code)
	}
	if n := statsOf(t, h).Prepared.Tenants; n != 2 {
		t.Fatalf("prepared.tenants %d with t1 and t2 holding, want 2", n)
	}
	// Deleting t1's handle releases its quota.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/prepare/"+pa.Handle, nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if n := statsOf(t, h).Prepared.Tenants; n != 1 {
		t.Fatalf("prepared.tenants %d after t1's delete, want 1", n)
	}
	if _, code = prepareBatch(t, h, batchA, "t1"); code != http.StatusOK {
		t.Fatalf("prepare after delete: %d", code)
	}
}

// The default cap is 32 plans for the default tenant (no X-Tenant header):
// the 32nd distinct /prepare succeeds and the 33rd is refused. A negative
// cap is no cap, and inline /query batches never count.
func TestPrepareQuotaDefault(t *testing.T) {
	batch := func(i int) string {
		return fmt.Sprintf("COUNT() WHERE age <= %d; SUM(salary) WHERE salary <= %d", i%32, i/32)
	}
	h := quotaHandler(t, Options{})
	for i := 0; i < 32; i++ {
		if _, code := prepareBatch(t, h, batch(i), ""); code != http.StatusOK {
			t.Fatalf("prepare %d of 32: %d", i+1, code)
		}
	}
	if _, code := prepareBatch(t, h, batch(32), ""); code != http.StatusTooManyRequests {
		t.Fatalf("33rd prepare: %d, want 429", code)
	}
	if rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 3"}`); rec.Code != http.StatusOK {
		t.Fatalf("inline query with the default tenant at its cap: %d", rec.Code)
	}
	if st := statsOf(t, h).Prepared; st.Tenants != 1 || st.Plans != 33 {
		t.Fatalf("prepared stats %+v, want 1 tenant and 33 plans", st)
	}

	h = quotaHandler(t, Options{MaxPreparedPerTenant: -1})
	for i := 0; i < 40; i++ {
		if _, code := prepareBatch(t, h, batch(i), ""); code != http.StatusOK {
			t.Fatalf("unlimited: prepare %d: %d", i+1, code)
		}
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

// TestStatementCapCountsParsedStatements: both endpoints count statements as
// the parser splits them, so a list whose every statement ends in ';' is
// held to the cap by its statements, not by its separators.
func TestStatementCapCountsParsedStatements(t *testing.T) {
	list := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "COUNT() WHERE age <= %d; ", i%32)
		}
		return b.String()
	}
	h, _, _ := testHandler(t)
	for _, path := range []string{"/query", "/prepare"} {
		body := func(n int) string { return `{"statements": ` + jsonString(list(n)) + `}` }
		if rec := postJSON(t, h, path, body(maxStatements), nil); rec.Code != http.StatusOK {
			t.Errorf("%s: %d statements ending in ';': %d %s", path, maxStatements, rec.Code, rec.Body)
		}
		rec := postJSON(t, h, path, body(maxStatements+1), nil)
		want := fmt.Sprintf("%d statements exceeds the limit of %d", maxStatements+1, maxStatements)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: %d statements: %d %q, want 400 naming %q", path, maxStatements+1, rec.Code, rec.Body, want)
		}
	}
}
