package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/sched"
)

// faultHandler is bigHandler with a fault injector (and optionally a retry
// layer) wrapped around the store before the server is built — the layering
// the facade documents: faults innermost, retries above them, the server's
// concurrency + coalescing outermost.
func faultHandler(t *testing.T, cfg repro.FaultConfig, retry *repro.RetryConfig) (*Handler, []float64) {
	t.Helper()
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		dist.AddTuple([]int{rng.Intn(256), rng.Intn(256)})
	}
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := repro.ParseBatch(schema, bigStatements)
	if err != nil {
		t.Fatal(err)
	}
	truth := batch.EvaluateDirect(dist)
	db.SetStack(repro.Stack{Fault: &cfg, Retry: retry})
	h := New(db, Options{Sched: sched.Config{Slice: 16, Workers: 2}})
	t.Cleanup(h.Close)
	return h, truth
}

func TestQueryDegradedReturns206(t *testing.T) {
	h, truth := faultHandler(t, repro.FaultConfig{ErrorRate: 0.2, Seed: 13}, nil)
	rec := postQuery(t, h, fmt.Sprintf(`{"statements": %q}`, bigStatements))
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Exact {
		t.Fatal("degraded response marked exact")
	}
	if !resp.Degraded || resp.Skipped == 0 {
		t.Fatalf("degradation not reported: %+v", resp)
	}
	if resp.Retrieved != resp.Distinct {
		t.Fatalf("degraded run did not drain: retrieved %d of %d", resp.Retrieved, resp.Distinct)
	}
	r := resp.Results[0]
	if r.Bound == nil {
		t.Fatal("degraded response missing error bound")
	}
	// Theorem 1 over the wire: the reported bound must dominate the actual
	// error of the degraded estimate (modulo the synopsis's own fp tolerance).
	if actual := math.Abs(r.Estimate - truth[0]); actual > *r.Bound+1e-6*(1+math.Abs(truth[0])) {
		t.Fatalf("actual error %g exceeds served bound %g", actual, *r.Bound)
	}
}

func TestQueryZeroFaultInjectorStaysExact(t *testing.T) {
	h, truth := faultHandler(t, repro.FaultConfig{}, nil)
	rec := postQuery(t, h, fmt.Sprintf(`{"statements": %q}`, bigStatements))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Exact || resp.Degraded || resp.Skipped != 0 {
		t.Fatalf("zero-fault injector changed the response: %+v", resp)
	}
	if got := resp.Results[0].Estimate; math.Abs(got-truth[0]) > 1e-6*(1+math.Abs(truth[0])) {
		t.Fatalf("estimate %g want %g", got, truth[0])
	}
}

func TestQueryRetriesAbsorbTransientFaults(t *testing.T) {
	retry := repro.RetryConfig{
		MaxAttempts: 8,
		BaseDelay:   10 * time.Microsecond,
		MaxDelay:    100 * time.Microsecond,
		Seed:        1,
	}
	h, truth := faultHandler(t, repro.FaultConfig{ErrorEvery: 3}, &retry)
	rec := postQuery(t, h, fmt.Sprintf(`{"statements": %q}`, bigStatements))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (retries should recover): %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Exact || resp.Degraded {
		t.Fatalf("transient faults leaked through the retry layer: %+v", resp)
	}
	if got := resp.Results[0].Estimate; math.Abs(got-truth[0]) > 1e-6*(1+math.Abs(truth[0])) {
		t.Fatalf("estimate %g want %g", got, truth[0])
	}
}

func TestStreamDegradedDoneEvent(t *testing.T) {
	h, _ := faultHandler(t, repro.FaultConfig{ErrorRate: 0.2, Seed: 13}, nil)
	req := httptest.NewRequest(http.MethodPost, "/query/stream",
		strings.NewReader(fmt.Sprintf(`{"statements": %q}`, bigStatements)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	frames := parseSSE(t, rec.Body.String())
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("terminal frame is %q", last.event)
	}
	var resp QueryResponse
	if err := json.Unmarshal([]byte(last.data), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Exact || !resp.Degraded || resp.Skipped == 0 {
		t.Fatalf("done frame does not report degradation: %+v", resp)
	}
	if resp.Results[0].Bound == nil {
		t.Fatal("degraded done frame missing bound")
	}
}

func TestQueryTimeoutThroughInjectedLatency(t *testing.T) {
	// Every retrieval would stall for an hour; the request deadline must cut
	// through the injected delay and come back promptly. No retrieval
	// completes, so there is no progressive state: 503.
	h, _ := faultHandler(t, repro.FaultConfig{DelayRate: 1, Delay: time.Hour, Seed: 3}, nil)
	start := time.Now()
	rec := postQuery(t, h, fmt.Sprintf(`{"statements": %q, "timeout_ms": 30}`, bigStatements))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("timeout took %v to enforce through the injected delay", elapsed)
	}
}
