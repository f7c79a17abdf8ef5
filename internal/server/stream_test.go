package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/penalty"
	"repro/internal/sched"
)

// bigHandler builds a handler over a 256×256 view whose test query touches
// hundreds of distinct coefficients, so slice-at-a-time scheduling produces
// many progress snapshots.
func bigHandler(t *testing.T, cfg sched.Config) (*Handler, []float64) {
	t.Helper()
	db, dist := bigDatabase(t)
	batch, err := repro.ParseBatch(db.Schema(), bigStatements)
	if err != nil {
		t.Fatal(err)
	}
	truth := batch.EvaluateDirect(dist)
	h := New(db, Options{Sched: cfg})
	t.Cleanup(h.Close)
	return h, truth
}

// bigDatabase is bigHandler's view: 400 random tuples on 256×256 under Db4.
func bigDatabase(t *testing.T) (*repro.Database, *repro.Distribution) {
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
	return db, dist
}

// bigStatements touches ~465 distinct coefficients on the bigHandler view.
const bigStatements = "SUM(salary) WHERE age <= 100"

// sseFrame is one parsed SSE event.
type sseFrame struct {
	event string
	data  string
}

func parseSSE(t *testing.T, body string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	for _, chunk := range strings.Split(body, "\n\n") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		var f sseFrame
		for _, line := range strings.Split(chunk, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			}
		}
		if f.event == "" {
			t.Fatalf("frame without event: %q", chunk)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestStreamProgressTightens drives /query/stream with a one-retrieval slice
// and checks the SSE contract: progress frames carry bounds that never widen
// as retrievals grow, and the terminal done frame is the exact answer.
func TestStreamProgressTightens(t *testing.T) {
	h, truth := bigHandler(t, sched.Config{Slice: 1})
	req := httptest.NewRequest(http.MethodPost, "/query/stream",
		strings.NewReader(fmt.Sprintf(`{"statements": %q}`, bigStatements)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The progress channel is latest-wins: a consumer outrun by the workers
	// skips intermediate snapshots, so the frame count is schedule-dependent.
	// At least one progress frame plus the done frame must survive.
	frames := parseSSE(t, rec.Body.String())
	if len(frames) < 2 {
		t.Fatalf("only %d frames for a %d-slice run", len(frames), 465)
	}
	lastRetrieved := -1
	lastBound := math.Inf(1)
	progress := 0
	for i, f := range frames {
		var resp QueryResponse
		if err := json.Unmarshal([]byte(f.data), &resp); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		switch f.event {
		case "progress":
			progress++
			if resp.Exact {
				t.Fatalf("frame %d: progress frame marked exact", i)
			}
			if resp.Retrieved <= lastRetrieved {
				t.Fatalf("frame %d: retrieved %d after %d", i, resp.Retrieved, lastRetrieved)
			}
			b := resp.Results[0].Bound
			if b == nil {
				t.Fatalf("frame %d: progress frame missing bound", i)
			}
			if *b > lastBound+1e-12 {
				t.Fatalf("frame %d: bound widened %g -> %g", i, lastBound, *b)
			}
			lastRetrieved, lastBound = resp.Retrieved, *b
		case "done":
			if i != len(frames)-1 {
				t.Fatalf("done frame %d is not terminal (%d frames)", i, len(frames))
			}
			if !resp.Exact || resp.Retrieved != resp.Distinct {
				t.Fatalf("done frame not exact: %+v", resp)
			}
			if got := resp.Results[0].Estimate; math.Abs(got-truth[0]) > 1e-6*(1+math.Abs(truth[0])) {
				t.Fatalf("done estimate %g want %g", got, truth[0])
			}
		default:
			t.Fatalf("frame %d: unexpected event %q: %s", i, f.event, f.data)
		}
	}
	if progress == 0 {
		t.Fatal("no progress frames before done")
	}
}

// TestStreamBudgetStopsEarly checks a budgeted stream terminates at the
// budget with bounds still attached.
func TestStreamBudgetStopsEarly(t *testing.T) {
	h, truth := bigHandler(t, sched.Config{Slice: 4})
	req := httptest.NewRequest(http.MethodPost, "/query/stream",
		strings.NewReader(fmt.Sprintf(`{"statements": %q, "budget": 20, "priority": "high"}`, bigStatements)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	frames := parseSSE(t, rec.Body.String())
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("terminal frame is %q", last.event)
	}
	var resp QueryResponse
	if err := json.Unmarshal([]byte(last.data), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Exact || resp.Retrieved != 20 {
		t.Fatalf("budgeted stream ended at %+v", resp)
	}
	r := resp.Results[0]
	if r.Bound == nil {
		t.Fatal("budgeted done frame missing bound")
	}
	if actual := math.Abs(r.Estimate - truth[0]); actual > *r.Bound+1e-9 {
		t.Fatalf("actual error %g exceeds bound %g", actual, *r.Bound)
	}
}

// blockedStore parks every retrieval on a gate channel, pinning a scheduler
// worker until the test releases it; every coefficient reads zero.
type blockedStore struct {
	gate chan struct{}
	once sync.Once
}

func (s *blockedStore) release() { s.once.Do(func() { close(s.gate) }) }
func (s *blockedStore) BatchGetCtx(_ context.Context, _ []int, dst []float64) error {
	<-s.gate
	clear(dst)
	return nil
}
func (s *blockedStore) Retrievals() int64 { return 0 }
func (s *blockedStore) ResetStats()       {}
func (s *blockedStore) NonzeroCount() int { return 0 }

// fillScheduler occupies the handler's run table and waiting queue with runs
// whose store blocks, so the next HTTP request is deterministically rejected.
func fillScheduler(t *testing.T, h *Handler, n int) *blockedStore {
	t.Helper()
	batch, err := repro.ParseBatch(h.db.Schema(), "COUNT() WHERE age <= 15")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := h.db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	gate := &blockedStore{gate: make(chan struct{})}
	t.Cleanup(gate.release)
	for i := 0; i < n; i++ {
		if _, err := h.sched.Submit(context.Background(),
			sched.Job{Run: core.NewRun(plan, penalty.SSE{}, gate)}); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	return gate
}

// TestOverloadRejectsWith429 fills a 1-active/1-queued scheduler and checks
// both endpoints shed load with 429 + Retry-After instead of queueing.
func TestOverloadRejectsWith429(t *testing.T) {
	h := overloadHandler(t)
	fillScheduler(t, h, 2)
	for _, path := range []string{"/query", "/query/stream"} {
		req := httptest.NewRequest(http.MethodPost, path,
			strings.NewReader(`{"statements": "COUNT() WHERE age <= 15"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429: %s", path, rec.Code, rec.Body)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Fatalf("%s: Retry-After %q", path, ra)
		}
	}
	st := h.sched.Stats()
	if st.Rejected < 2 {
		t.Fatalf("rejected counter = %d", st.Rejected)
	}
}

// TestDeadlineWithoutProgressIs503 pins the only worker on a blocked run, so
// a timed request is cancelled having retrieved nothing — a 503, since there
// is no progressive state to return.
func TestDeadlineWithoutProgressIs503(t *testing.T) {
	h := overloadHandler(t)
	fillScheduler(t, h, 1)
	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15", "timeout_ms": 30}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
}

// overloadHandler is the tiny fixture with a deliberately cramped scheduler:
// one active slot, one queue slot, one worker.
func overloadHandler(t *testing.T) *Handler {
	t.Helper()
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	dist.AddTuple([]int{10, 20})
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	h := New(db, Options{Sched: sched.Config{MaxActive: 1, MaxQueued: 1, Workers: 1}})
	t.Cleanup(h.Close)
	return h
}

// TestRequestValidation covers the request-shape error paths added with the
// scheduler: oversized statement lists, bad priority, negative timeout and
// an oversized body.
func TestRequestValidation(t *testing.T) {
	h, _, _ := testHandler(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"oversized statement list", `{"statements": "` + strings.Repeat("COUNT();", maxStatements) + `COUNT()"}`, http.StatusBadRequest},
		{"bad priority", `{"statements": "COUNT()", "priority": "urgent"}`, http.StatusBadRequest},
		{"negative timeout", `{"statements": "COUNT()", "timeout_ms": -5}`, http.StatusBadRequest},
		{"oversized body", `{"statements": "` + strings.Repeat(" ", maxBodyBytes) + `"}`, http.StatusBadRequest},
		{"good priority", `{"statements": "COUNT()", "priority": "LOW"}`, http.StatusOK},
	}
	for _, c := range cases {
		rec := postQuery(t, h, c.body)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.want, rec.Body)
		}
	}
}

// TestStatsExposeSchedulerAndCoalescing checks /stats reports the new
// subsystem counters after traffic has flowed — over a layout file, a store
// the handler still coalesces.
func TestStatsExposeSchedulerAndCoalescing(t *testing.T) {
	// A declared coalescing layer: a mapped file is served without one.
	h, _ := layoutHandler(t, repro.Stack{Coalesce: true})
	for i := 0; i < 3; i++ {
		if rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`); rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Submitted < 3 || stats.Scheduler.Completed < 3 {
		t.Fatalf("scheduler counters = %+v", stats.Scheduler)
	}
	if stats.Coalescing.Requests == 0 {
		t.Fatalf("coalescing counters = %+v", stats.Coalescing)
	}
	if stats.Coalescing.Requests != stats.Coalescing.Fetched+stats.Coalescing.Coalesced {
		t.Fatalf("coalescing counters do not balance: %+v", stats.Coalescing)
	}
}

// TestInMemoryHandlerDoesNotCoalesce: a database that answers from process
// memory is served without the singleflight layer, so nothing is requested
// through one — the counters read zero (so requests = fetched + coalesced
// still holds) from the facade and from the registry snapshot alike, while
// the queries are answered.
func TestInMemoryHandlerDoesNotCoalesce(t *testing.T) {
	for _, observed := range []bool{false, true} {
		h, db, _ := testHandler(t)
		if observed {
			observe(t, h)
		}
		if !db.InMemory() {
			t.Fatal("an in-memory database does not report InMemory")
		}
		if _, ok := db.CoalescingStats(); ok {
			t.Fatal("the handler put a coalescing layer over an in-memory store")
		}
		for i := 0; i < 3; i++ {
			if rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`); rec.Code != http.StatusOK {
				t.Fatalf("query %d: %d", i, rec.Code)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var stats StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Scheduler.Completed < 3 || stats.Retrievals == 0 {
			t.Fatalf("observed=%v: no traffic recorded: %+v", observed, stats)
		}
		if stats.Coalescing != (repro.CoalesceStats{}) {
			t.Fatalf("observed=%v: coalescing counters = %+v, want zeros", observed, stats.Coalescing)
		}
	}
}

// TestConcurrentMixedEndpoints runs real HTTP traffic — buffered /query and
// streamed /query/stream interleaved from many clients — against one
// handler. Under -race this is the end-to-end check that scheduler, store
// coalescing and SSE delivery share state safely.
func TestConcurrentMixedEndpoints(t *testing.T) {
	h, truth := bigHandler(t, sched.Config{Slice: 16, Workers: 4})
	srv := httptest.NewServer(h)
	defer srv.Close()

	check := func(est float64) error {
		if math.Abs(est-truth[0]) > 1e-6*(1+math.Abs(truth[0])) {
			return fmt.Errorf("estimate %g want %g", est, truth[0])
		}
		return nil
	}
	body := fmt.Sprintf(`{"statements": %q}`, bigStatements)
	const clients = 6
	errc := make(chan error, clients)
	for w := 0; w < clients; w++ {
		streaming := w%2 == 0
		go func() {
			for i := 0; i < 4; i++ {
				if streaming {
					resp, err := http.Post(srv.URL+"/query/stream", "application/json", strings.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					final, err := lastDoneFrame(resp.Body)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if err := check(final.Results[0].Estimate); err != nil {
						errc <- err
						return
					}
				} else {
					resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					var qr QueryResponse
					err = json.NewDecoder(resp.Body).Decode(&qr)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if !qr.Exact {
						errc <- fmt.Errorf("expected exact, got %+v", qr)
						return
					}
					if err := check(qr.Results[0].Estimate); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < clients; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := h.sched.Stats()
	if st.Completed < clients*4 {
		t.Fatalf("completed = %d, want >= %d", st.Completed, clients*4)
	}
}

// lastDoneFrame reads an SSE stream to EOF and decodes the terminal done
// event.
func lastDoneFrame(r io.Reader) (QueryResponse, error) {
	var (
		resp  QueryResponse
		event string
		found bool
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &resp); err != nil {
				return resp, err
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return resp, err
	}
	if !found {
		return resp, fmt.Errorf("stream ended without a done event")
	}
	return resp, nil
}

// TestInMemoryDrainAllocationsDoNotGrowWithThePlan: through the stack the
// handler assembles over an in-memory database — store, timing wrapper,
// no singleflight — a full drain allocates its run's fixed buffers and
// nothing per coefficient, whatever the plan's size.
func TestInMemoryDrainAllocationsDoNotGrowWithThePlan(t *testing.T) {
	db, _ := bigDatabase(t)
	db.SetStack(repro.Stack{Instrument: true}) // as wvqd does before it builds the handler
	h := New(db, Options{})
	t.Cleanup(h.Close)

	ctx := context.Background()
	drain := func(stmt string) (keys int, allocs float64) {
		batch, err := repro.ParseBatch(db.Schema(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.Plan(batch)
		if err != nil {
			t.Fatal(err)
		}
		plan.ScheduleFor(repro.SSE())
		allocs = testing.AllocsPerRun(10, func() {
			run := db.NewRun(plan, repro.SSE())
			for {
				n, err := run.StepBatchCtx(ctx, 1024)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					return
				}
			}
		})
		return plan.DistinctCoefficients(), allocs
	}
	smallKeys, small := drain("COUNT() WHERE age <= 3")
	largeKeys, large := drain("SUM(salary) WHERE age <= 100 GROUP BY salary(16)")
	if largeKeys < 8*smallKeys {
		t.Fatalf("plans of %d and %d coefficients do not tell a per-key term apart", smallKeys, largeKeys)
	}
	if small > 4 || large > 4 {
		t.Fatalf("a drain of %d coefficients allocates %v objects, one of %d allocates %v; want at most 4 each",
			smallKeys, small, largeKeys, large)
	}
}
