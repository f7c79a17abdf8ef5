package server

// EXPLAIN ANALYZE over HTTP: ?explain=1 attaches a per-run profile to the
// response, the profile's timing components stay consistent with the run's
// wall time, a degraded distributed query attributes errors and skips to the
// dead shard, and the slow-query log records threshold-crossing requests
// into the structured log and the /debug/profiles ring without being asked.

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// checkProfileTiming asserts the internal consistency the acceptance bar
// demands: per-step rows sum to the step total, and the recorded components
// (plan build + setup + queue + steps) never exceed the run's wall time
// (small slack for clock granularity).
func checkProfileTiming(t *testing.T, p *obs.ProfileSnapshot) {
	t.Helper()
	if p.WallNanos <= 0 {
		t.Fatalf("profile wall %dns, want > 0", p.WallNanos)
	}
	if len(p.Steps) == 0 || p.StepNanos <= 0 {
		t.Fatalf("profile has %d steps, step total %dns", len(p.Steps), p.StepNanos)
	}
	var stepSum int64
	for _, s := range p.Steps {
		stepSum += s.DurNanos
	}
	if stepSum != p.StepNanos {
		t.Fatalf("step rows sum to %dns, step total %dns", stepSum, p.StepNanos)
	}
	components := p.Plan.BuildNanos + p.Plan.SetupNanos + p.Plan.QueueNanos + p.StepNanos
	if float64(components) > float64(p.WallNanos)*1.05+float64(time.Millisecond) {
		t.Fatalf("timing components %dns exceed wall %dns", components, p.WallNanos)
	}
}

func TestExplainProfileOnQuery(t *testing.T) {
	h, _, _ := testHandler(t)

	// Without explain the response carries no profile.
	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Profile != nil {
		t.Fatal("profile attached without ?explain=1")
	}

	// With explain the full profile rides the response.
	req := httptest.NewRequest(http.MethodPost, "/query?explain=1",
		strings.NewReader(`{"statements": "COUNT() WHERE age <= 15"}`))
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("explain status %d: %s", rec2.Code, rec2.Body)
	}
	var eresp QueryResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Profile == nil {
		t.Fatal("?explain=1 returned no profile")
	}
	p := eresp.Profile
	if p.ID == "" {
		t.Fatal("profile has no request ID")
	}
	if p.Plan.Source == "" {
		t.Fatal("profile has no plan source")
	}
	if p.Plan.Queries != 1 || p.Plan.Terms <= 0 {
		t.Fatalf("plan shape: queries=%d terms=%d", p.Plan.Queries, p.Plan.Terms)
	}
	checkProfileTiming(t, p)

	// Estimates are bit-identical with and without profiling.
	for i := range resp.Results {
		if resp.Results[i].Estimate != eresp.Results[i].Estimate {
			t.Fatalf("result %d: %g unprofiled, %g profiled", i,
				resp.Results[i].Estimate, eresp.Results[i].Estimate)
		}
	}

	// A second identical batch resolves from the plan cache and says so.
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, httptest.NewRequest(http.MethodPost, "/query?explain=1",
		strings.NewReader(`{"statements": "COUNT() WHERE age <= 15"}`)))
	var cresp QueryResponse
	if err := json.Unmarshal(rec3.Body.Bytes(), &cresp); err != nil {
		t.Fatal(err)
	}
	if cresp.Profile == nil || cresp.Profile.Plan.Source != "cache-hit" {
		t.Fatalf("repeat batch plan source: %+v", cresp.Profile)
	}

	// A malformed explain value is a client error.
	rec4 := httptest.NewRecorder()
	h.ServeHTTP(rec4, httptest.NewRequest(http.MethodPost, "/query?explain=yes-please",
		strings.NewReader(`{"statements": "COUNT() WHERE age <= 15"}`)))
	if rec4.Code != http.StatusBadRequest {
		t.Fatalf("bad explain value: status %d, want 400", rec4.Code)
	}
}

// TestExplainProfileDegradedDistributed is the acceptance scenario: a
// 4-shard distributed query with one shard dead must answer 206 and the
// ?explain=1 profile must attribute the failure — errors and degraded keys
// on the dead shard's row, traffic on the live ones — with step timings
// consistent with the run's wall time.
func TestExplainProfileDegradedDistributed(t *testing.T) {
	h, _, servers := distHandler(t)
	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/query?explain=1",
		strings.NewReader(`{"statements": "`+distStatements+`"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Profile == nil {
		t.Fatalf("degraded=%v profile=%v", resp.Degraded, resp.Profile != nil)
	}
	p := resp.Profile
	checkProfileTiming(t, p)

	// Skips surfaced per step must cover the response's skip count.
	var skipped int
	for _, s := range p.Steps {
		skipped += s.Skipped
	}
	if skipped != resp.Skipped {
		t.Fatalf("profile steps skip %d, response skipped %d", skipped, resp.Skipped)
	}

	// Shard attribution: the dead shard's row carries the errors and the
	// degraded keys; live shards carry traffic and no errors.
	if len(p.Shards) != 4 {
		t.Fatalf("profile has %d shard rows, want 4", len(p.Shards))
	}
	for _, row := range p.Shards {
		if row.Shard == 2 {
			if row.Errors == 0 || row.Degraded == 0 {
				t.Fatalf("dead shard row unmarked: %+v", row)
			}
			continue
		}
		if row.Errors != 0 {
			t.Fatalf("live shard %d shows errors: %+v", row.Shard, row)
		}
		if row.Keys == 0 || row.Batches == 0 {
			t.Fatalf("live shard %d shows no traffic: %+v", row.Shard, row)
		}
		if row.Bytes == 0 || row.RemoteNanos == 0 {
			t.Fatalf("live shard %d missing wire attribution: %+v", row.Shard, row)
		}
	}
}

// TestExplainRetriesOverShards serves a 2-shard coordinator under
// `-retry-attempts 3 -chaos-error-every 5`, the stack wvqd declares for those
// flags: the ?explain=1 profile tells the cross-process story on its own —
// the keys the retry layer fetched again, and each shard's echoed serve
// time beside the coordinator's wall time for it.
func TestExplainRetriesOverShards(t *testing.T) {
	db := servedShards(t, servedFile(t, 400, 7), 2)
	t.Cleanup(func() { _ = db.Close() })
	db.SetStack(repro.Stack{
		Fault:      &repro.FaultConfig{ErrorEvery: 5, Seed: 1},
		Retry:      &repro.RetryConfig{MaxAttempts: 3},
		Instrument: true,
	})
	h := New(db, Options{})
	t.Cleanup(h.Close)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?explain=1",
		strings.NewReader(`{"statements": "`+servedPrepared+`"}`)))
	// Three attempts do not beat every fault of that schedule: a key that
	// fails all three degrades the answer to 206, which is beside the point.
	if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 200 or 206: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Profile struct {
			Tiers  map[string]int64 `json:"tiers"`
			Shards []obs.ShardProfile
		} `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if tiers := resp.Profile.Tiers; tiers["retried"] <= 0 {
		t.Fatalf("profile tiers %v, want retried > 0", tiers)
	}
	if len(resp.Profile.Shards) != 2 {
		t.Fatalf("profile has %d shard rows, want 2", len(resp.Profile.Shards))
	}
	for _, row := range resp.Profile.Shards {
		if row.RemoteNanos <= 0 || row.WallNanos < row.RemoteNanos {
			t.Fatalf("shard %d: remote %dns, wall %dns; want 0 < remote <= wall", row.Shard, row.RemoteNanos, row.WallNanos)
		}
	}
}

// TestSlowQueryLogAndRing arms the slow-query threshold at one nanosecond so
// every request crosses it: the query must be profiled without ?explain=1
// (no profile in the response), flagged slow, logged through the structured
// logger, retained in /debug/profiles at its fixed depth, and counted in
// /stats diagnostics.
func TestSlowQueryLogAndRing(t *testing.T) {
	h, _, _ := testHandler(t)
	hs := New(h.db, Options{SlowQuery: time.Nanosecond})
	t.Cleanup(hs.Close)
	var logBuf bytes.Buffer
	o := obs.NewObserver()
	o.Log = slog.New(slog.NewTextHandler(&logBuf, nil))
	hs.Observe(o)
	t.Cleanup(func() { hs.Observe(nil) })

	rec := postQuery(t, hs, `{"statements": "COUNT() WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Profile != nil {
		t.Fatal("slow-query profiling must not leak into the response without ?explain=1")
	}
	if !strings.Contains(logBuf.String(), "slow query") {
		t.Fatalf("no slow-query log record emitted; log: %s", logBuf.String())
	}

	// The ring retains the profile, flagged slow, at its one depth.
	if _, got, _ := o.RingStats(); got != obs.DefaultProfileCapacity {
		t.Fatalf("profile ring capacity %d, want %d", got, obs.DefaultProfileCapacity)
	}
	prec := httptest.NewRecorder()
	o.ProfilesHandler().ServeHTTP(prec,
		httptest.NewRequest(http.MethodGet, "/debug/profiles?slow=1", nil))
	if prec.Code != http.StatusOK {
		t.Fatalf("/debug/profiles status %d", prec.Code)
	}
	var profs struct {
		Profiles []obs.ProfileSnapshot `json:"profiles"`
	}
	if err := json.Unmarshal(prec.Body.Bytes(), &profs); err != nil {
		t.Fatal(err)
	}
	if len(profs.Profiles) != 1 || !profs.Profiles[0].Slow {
		t.Fatalf("slow ring: %d profiles, first slow=%v",
			len(profs.Profiles), len(profs.Profiles) > 0 && profs.Profiles[0].Slow)
	}

	// /stats diagnostics reflect the threshold, the count, and the ring.
	srec := httptest.NewRecorder()
	hs.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	d := stats.Diagnostics
	if d.SlowQueries != 1 || d.ProfilesRetained != 1 || d.ProfileCapacity != 64 {
		t.Fatalf("diagnostics: %+v", d)
	}
}

// TestStreamEmitsProfileEvent checks the SSE surface: with ?explain=1 the
// stream ends with a terminal `profile` event after `done`, and without it
// the event is absent.
func TestStreamEmitsProfileEvent(t *testing.T) {
	h, _, _ := testHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/query/stream?explain=1",
		strings.NewReader(`{"statements": "COUNT() WHERE age <= 15"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	di := strings.Index(body, "event: done")
	pi := strings.Index(body, "event: profile")
	if di < 0 || pi < 0 || pi < di {
		t.Fatalf("stream events misordered: done@%d profile@%d\n%s", di, pi, body)
	}
	payload := body[pi:]
	payload = payload[strings.Index(payload, "data: ")+len("data: "):]
	payload = payload[:strings.Index(payload, "\n")]
	var snap obs.ProfileSnapshot
	if err := json.Unmarshal([]byte(payload), &snap); err != nil {
		t.Fatalf("profile event payload: %v\n%s", err, payload)
	}
	checkProfileTiming(t, &snap)

	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/query/stream",
		strings.NewReader(`{"statements": "COUNT() WHERE age <= 15"}`)))
	if strings.Contains(rec2.Body.String(), "event: profile") {
		t.Fatal("unrequested profile event in stream")
	}
}
