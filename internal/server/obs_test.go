package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

// observedHandler is testHandler with the full observer installed; the
// cleanup uninstalls the package-level instrumentation so other tests see
// the default (off) state.
func observedHandler(t *testing.T) (*Handler, *obs.Observer) {
	t.Helper()
	h, _, _ := testHandler(t)
	return h, observe(t, h)
}

// observe installs a fresh observer on h for the length of the test.
func observe(t *testing.T, h *Handler) *obs.Observer {
	t.Helper()
	o := obs.NewObserver()
	h.Observe(o)
	t.Cleanup(func() { h.Observe(nil) })
	return o
}

func scrapeMetrics(t *testing.T, o *obs.Observer) string {
	t.Helper()
	rec := httptest.NewRecorder()
	o.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

func TestObservedQueryExportsMetrics(t *testing.T) {
	h, o := observedHandler(t)

	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15", "budget": 5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	rec = postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}

	text := scrapeMetrics(t, o)
	// Every layer must contribute its families to one scrape.
	for _, want := range []string{
		`wvq_http_requests_total{endpoint="/query",code="200"} 2`,
		"# TYPE wvq_http_request_seconds histogram",
		"# TYPE wvq_sched_submitted_total counter",
		"# TYPE wvq_core_stepbatch_seconds histogram",
		"# TYPE wvq_storage_coalesce_requests_total counter",
		"# TYPE wvq_sched_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}

	// Counters are monotone across scrapes.
	snap1 := o.Registry.Snapshot()
	rec = postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	snap2 := o.Registry.Snapshot()
	for _, key := range []string{
		`wvq_http_requests_total{endpoint="/query",code="200"}`,
		"wvq_sched_submitted_total",
		"wvq_sched_completed_total",
		"wvq_core_runs_total",
	} {
		if snap2[key] < snap1[key] {
			t.Fatalf("%s went backwards: %v -> %v", key, snap1[key], snap2[key])
		}
		if snap2[key] != snap1[key]+1 {
			t.Fatalf("%s = %v after one more request (was %v)", key, snap2[key], snap1[key])
		}
	}
	if snap2["wvq_http_in_flight"] != 0 {
		t.Fatalf("in-flight gauge stuck at %v", snap2["wvq_http_in_flight"])
	}
}

func TestObservedStatsConsistentSnapshot(t *testing.T) {
	// A layout-backed handler: the in-memory one runs no coalescing layer
	// (TestInMemoryHandlerDoesNotCoalesce).
	h, _ := layoutHandler(t)
	o := observe(t, h)
	rec := postQuery(t, h, `{"statements": "SUM(salary) WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	if srec.Code != http.StatusOK {
		t.Fatalf("/stats status %d: %s", srec.Code, srec.Body)
	}
	var resp StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The old JSON shape holds, now filled from one registry snapshot.
	if resp.Scheduler.Submitted != 1 || resp.Scheduler.Completed != 1 {
		t.Fatalf("scheduler stats: %+v", resp.Scheduler)
	}
	if resp.Scheduler.Active != 0 || resp.Scheduler.Queued != 0 {
		t.Fatalf("occupancy gauges: %+v", resp.Scheduler)
	}
	if resp.Coalescing.Requests == 0 || resp.Coalescing.Fetched == 0 {
		t.Fatalf("coalescing stats: %+v", resp.Coalescing)
	}
	if resp.Coalescing.Requests != resp.Coalescing.Fetched+resp.Coalescing.Coalesced {
		t.Fatalf("coalescing identity broken: %+v", resp.Coalescing)
	}
	snap := o.Registry.Snapshot()
	if int64(snap["wvq_storage_coalesce_requests_total"]) != resp.Coalescing.Requests {
		t.Fatal("/stats and the registry disagree on coalesce requests")
	}
	if resp.Tuples == 0 || resp.Coefficients == 0 || resp.Filter == "" {
		t.Fatalf("view metadata missing: %+v", resp)
	}
}

func TestObservedRunTraceRecorded(t *testing.T) {
	h, o := observedHandler(t)
	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	snaps := o.Runs.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d run traces", len(snaps))
	}
	tr := snaps[0]
	if !tr.Finished || !tr.Done {
		t.Fatalf("trace not closed: %+v", tr)
	}
	if tr.ID == "" || tr.Label != "COUNT() WHERE age <= 15" {
		t.Fatalf("trace identity: id=%q label=%q", tr.ID, tr.Label)
	}
	if len(tr.Points) == 0 {
		t.Fatal("no trajectory points recorded")
	}
	last := tr.Points[len(tr.Points)-1]
	if last.Bound != 0 {
		t.Fatalf("exact run trace must end at bound 0, got %g", last.Bound)
	}
	// Request spans from the middleware landed in the span sink.
	if o.Spans.Total() == 0 {
		t.Fatal("no spans recorded for the request")
	}
}

func TestUnobservedHandlerUnchanged(t *testing.T) {
	h, _, _ := testHandler(t)
	// Ensure no leftover instrumentation from other tests.
	storage.Observe(nil)
	layout.Observe(nil)
	core.Observe(nil)
	sched.Observe(nil)
	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	var resp StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scheduler.Submitted != 1 {
		t.Fatalf("unobserved /stats scheduler: %+v", resp.Scheduler)
	}
}
