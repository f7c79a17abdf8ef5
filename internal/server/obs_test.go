package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
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

// servedShapes are the store stacks wvqd serves, each with the batch its
// script runs and whatever the shape does before it: -mvcc ingests and
// compacts, the coordinator loses a shard.
var servedShapes = []struct {
	name       string
	golden     string // testdata/metrics_<golden>.golden: a coordinator adds the per-shard families, nothing else differs
	statements string
	build      func(t *testing.T) *Handler
}{
	{"plain", "local", "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15", func(t *testing.T) *Handler {
		h, _, _ := testHandler(t)
		return h
	}},
	{"layout", "local", "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15", func(t *testing.T) *Handler {
		h, _ := layoutHandler(t, repro.Stack{})
		return h
	}},
	{"mvcc", "local", "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15", func(t *testing.T) *Handler {
		db := mvccDatabase(t)
		h := New(db, Options{})
		t.Cleanup(h.Close)
		ingestAndCompact(t, h, db)
		return h
	}},
	{"mvcc-chaos", "local", "COUNT() WHERE age <= 15; SUM(salary) WHERE age <= 15", func(t *testing.T) *Handler {
		db := mvccDatabase(t)
		db.SetStack(repro.Stack{
			Fault: &repro.FaultConfig{ErrorEvery: 3},
			Retry: &repro.RetryConfig{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond},
		})
		h := New(db, Options{})
		t.Cleanup(h.Close)
		ingestAndCompact(t, h, db)
		return h
	}},
	{"dist-2shard-1dead", "coordinator", distStatements, func(t *testing.T) *Handler {
		h, _, servers := distHandlerN(t, 2)
		if err := servers[1].Close(); err != nil {
			t.Fatal(err)
		}
		return h
	}},
}

// ingestAndCompact publishes eight versions through POST /ingest and folds
// them into a new base.
func ingestAndCompact(t *testing.T, h *Handler, db *repro.Database) {
	t.Helper()
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"tuples": [{"coords": [%d, %d]}, {"coords": [%d, 3]}]}`, i, 2*i, 31-i)
		if rec := postIngest(t, h, "application/json", body); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if err := db.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// shapeScript is the request script every shape runs: prepare the batch,
// execute it by handle at three budgets and inline at a fourth, stream it
// once, read /stats.
func shapeScript(t *testing.T, h *Handler, statements string) {
	t.Helper()
	prep, code := prepareBatch(t, h, statements, "")
	if code != http.StatusOK {
		t.Fatalf("prepare: status %d", code)
	}
	served := func(rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, budget := range []int{0, 1, 3} {
		served(postQuery(t, h, fmt.Sprintf(`{"handle": %q, "budget": %d}`, prep.Handle, budget)))
	}
	served(postQuery(t, h, fmt.Sprintf(`{"statements": %q, "budget": 2}`, statements)))
	served(postJSON(t, h, "/query/stream", fmt.Sprintf(`{"handle": %q}`, prep.Handle), nil))
	statsOf(t, h)
}

// readFamilyFields names, for every read family, the /stats field (by its
// JSON path) it is read from — the wire's view of the table in obs.go. The
// per-shard families are added for as many shards as /stats reports.
var readFamilyFields = map[string]string{
	"wvq_sched_submitted_total": "scheduler.submitted",
	"wvq_sched_rejected_total":  "scheduler.rejected",
	"wvq_sched_completed_total": "scheduler.completed",
	"wvq_sched_cancelled_total": "scheduler.cancelled",
	"wvq_sched_slices_total":    "scheduler.slices",
	"wvq_sched_stepped_total":   "scheduler.stepped",
	"wvq_sched_queue_depth":     "scheduler.queued",
	"wvq_sched_active_runs":     "scheduler.active",

	"wvq_storage_coalesce_requests_total": "coalescing.requests",
	"wvq_storage_coalesce_fetched_total":  "coalescing.fetched",
	"wvq_storage_coalesce_shared_total":   "coalescing.coalesced",

	"wvq_storage_layout_hits_total":                "layout.cold_hits",
	"wvq_storage_layout_block_loads_total":         "layout.block_loads",
	"wvq_storage_layout_block_load_failures_total": "layout.block_load_failures",

	"wvq_mvcc_version":                "mvcc.version",
	"wvq_mvcc_layers":                 "mvcc.layers",
	"wvq_mvcc_layer_keys":             "mvcc.layer_keys",
	"wvq_mvcc_pinned_snapshots":       "mvcc.pinned",
	"wvq_mvcc_applies_total":          "mvcc.applies",
	"wvq_mvcc_applied_tuples_total":   "mvcc.applied_tuples",
	"wvq_mvcc_applied_keys_total":     "mvcc.applied_keys",
	"wvq_mvcc_compactions_total":      "mvcc.compactions",
	"wvq_mvcc_compacted_layers_total": "mvcc.compacted_layers",

	"wvq_dist_degraded_keys_total": "dist.degraded_keys",

	"wvq_core_plan_registry_hits_total":      "prepared.hits",
	"wvq_core_plan_registry_misses_total":    "prepared.misses",
	"wvq_core_plan_registry_evictions_total": "prepared.evictions",
	"wvq_core_template_binds_total":          "prepared.template_binds",

	"wvq_http_prepared_executes_total": "prepared.prepared_executes",
	"wvq_http_adhoc_executes_total":    "prepared.adhoc_executes",
}

// statsField walks a dotted path through a decoded /stats body; a section
// or field the body does not carry reads as 0, as its read family does.
func statsField(body map[string]any, path string) float64 {
	var cur any = body
	for _, name := range strings.Split(path, ".") {
		switch v := cur.(type) {
		case map[string]any:
			cur = v[name]
		case []any:
			i, _ := strconv.Atoi(name)
			cur = v[i]
		default:
			return 0
		}
	}
	n, _ := cur.(float64)
	return n
}

var sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? \S+$`)
var labelKeyRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

// expositionShape reduces a scrape to what a dashboard is built against:
// the # HELP and # TYPE lines and, per sample name, its label keys — sorted,
// without values.
func expositionShape(t *testing.T, scrape string) string {
	t.Helper()
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(scrape), "\n") {
		if !strings.HasPrefix(line, "#") {
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparsable sample line %q", line)
			}
			var keys []string
			for _, k := range labelKeyRE.FindAllStringSubmatch(m[2], -1) {
				keys = append(keys, k[1])
			}
			line = m[1] + "{" + strings.Join(keys, ",") + "}"
		}
		seen[line] = true
	}
	lines := make([]string, 0, len(seen))
	for line := range seen {
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics_*.golden from this build's /metrics")

// TestObservedStatsConsistentSnapshot runs every served stack shape through
// the same script and checks the three things an observed handler promises:
// the exposition is the one dashboards were built against (names, kinds,
// help, label keys: the golden files were captured from the build before the
// registry read its families), every read family equals the /stats field it
// is read from, and the integrity constraints between counters hold in every
// /stats body taken while drains are in flight.
func TestObservedStatsConsistentSnapshot(t *testing.T) {
	for _, shape := range servedShapes {
		t.Run(shape.name, func(t *testing.T) {
			h := shape.build(t)
			o := observe(t, h)
			shapeScript(t, h, shape.statements)

			golden := filepath.Join("testdata", "metrics_"+shape.golden+".golden")
			got := expositionShape(t, scrapeMetrics(t, o))
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("/metrics exposition moved from %s:\n%s", golden, got)
			}

			parity := func() {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
				var body map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatal(err)
				}
				fields := maps.Clone(readFamilyFields)
				if d, ok := body["dist"].(map[string]any); ok {
					for i := range d["health"].([]any) {
						for _, f := range []string{"requests", "keys", "errors"} {
							fields[fmt.Sprintf(`wvq_dist_shard_%s_total{shard="%d"}`, f, i)] = fmt.Sprintf("dist.health.%d.%s", i, f)
						}
					}
				}
				snap := o.Registry.Snapshot()
				for family, path := range fields {
					got, ok := snap[family]
					if want := statsField(body, path); !ok || got != want {
						t.Errorf("%s = %v (registered %v), /stats %s = %v", family, got, ok, path, want)
					}
				}
			}
			parity()
			st := statsOf(t, h)
			if st.Scheduler.Submitted != 5 || st.Scheduler.Completed != 5 {
				t.Fatalf("scheduler stats after five executes: %+v", st.Scheduler)
			}
			if st.Prepared.PreparedExecutes != 4 || st.Prepared.AdhocExecutes != 1 {
				t.Fatalf("execute mix after the script: %+v", st.Prepared)
			}
			if strings.Contains(st.StoreStack, "coalesce") != (st.Coalescing.Requests > 0) {
				t.Fatalf("stack %q, coalescing stats %+v", st.StoreStack, st.Coalescing)
			}

			// Eight drains in flight; every sampled /stats body keeps both
			// identities, whatever instant it was gathered at.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					body := fmt.Sprintf(`{"statements": %q}`, shape.statements)
					for {
						select {
						case <-stop:
							return
						default:
						}
						req := httptest.NewRequest(http.MethodPost, "/query/stream", strings.NewReader(body))
						h.ServeHTTP(httptest.NewRecorder(), req)
					}
				}()
			}
			for i := 0; i < 100; i++ {
				st := statsOf(t, h)
				if sc := st.Scheduler; sc.Submitted != sc.Completed+sc.Cancelled+int64(sc.Active)+int64(sc.Queued) {
					t.Errorf("sample %d: submitted != completed + cancelled + active + queued: %+v", i, sc)
				}
				if co := st.Coalescing; co.Requests != co.Fetched+co.Coalesced {
					t.Errorf("sample %d: requests != fetched + coalesced: %+v", i, co)
				}
			}
			close(stop)
			wg.Wait()
			parity()
		})
	}
}

// TestTwoObservedHandlersKeepTheirOwnNumbers: what an observed handler
// reports is its own components' counts, not the process's. A drain through
// one of two observed handlers shows in that handler's /stats and registry
// and in neither of the other's.
func TestTwoObservedHandlersKeepTheirOwnNumbers(t *testing.T) {
	// A declared coalescing layer, so that A has coalescing numbers to own.
	a, _ := layoutHandler(t, repro.Stack{Coalesce: true})
	oa := observe(t, a)
	b, _, _ := testHandler(t)
	ob := observe(t, b)
	if rec := postQuery(t, a, `{"statements": "SUM(salary) WHERE age <= 15"}`); rec.Code != http.StatusOK {
		t.Fatalf("query status %d", rec.Code)
	}

	sa, ra := statsOf(t, a), oa.Registry.Snapshot()
	if sa.Scheduler.Submitted != 1 || ra["wvq_sched_submitted_total"] != 1 {
		t.Fatalf("A submitted: /stats %d, registry %v, want 1", sa.Scheduler.Submitted, ra["wvq_sched_submitted_total"])
	}
	if sa.Coalescing.Requests == 0 || ra["wvq_storage_coalesce_requests_total"] == 0 {
		t.Fatalf("A coalescing: /stats %+v, registry %v", sa.Coalescing, ra["wvq_storage_coalesce_requests_total"])
	}
	if hits := ra["wvq_storage_layout_hits_total"]; sa.Layout.ColdHits == 0 || hits == 0 {
		t.Fatalf("A layout hits: /stats %+v, registry %v", sa.Layout, hits)
	}
	sb, rb := statsOf(t, b), ob.Registry.Snapshot()
	if sb.Scheduler.Submitted != 0 || sb.Coalescing != (repro.CoalesceStats{}) {
		t.Fatalf("B /stats after a drain through A: %+v %+v", sb.Scheduler, sb.Coalescing)
	}
	for _, family := range []string{
		"wvq_sched_submitted_total", "wvq_sched_stepped_total", "wvq_storage_coalesce_requests_total",
		"wvq_storage_layout_hits_total",
	} {
		if v, ok := rb[family]; !ok || v != 0 {
			t.Fatalf("B registry %s = %v (registered %v) after a drain through A", family, v, ok)
		}
	}
}

func TestObservedRunTraceRecorded(t *testing.T) {
	h, o := observedHandler(t)
	rec := postQuery(t, h, `{"statements": "COUNT() WHERE age <= 15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	snaps := o.Profiles()
	if len(snaps) != 1 {
		t.Fatalf("got %d runs", len(snaps))
	}
	tr := snaps[0]
	if !tr.Finished || !tr.Done {
		t.Fatalf("trace not closed: %+v", tr)
	}
	if tr.ID == "" || tr.Label != "COUNT() WHERE age <= 15" {
		t.Fatalf("trace identity: id=%q label=%q", tr.ID, tr.Label)
	}
	if len(tr.Bound) == 0 {
		t.Fatal("no trajectory points recorded")
	}
	last := tr.Bound[len(tr.Bound)-1]
	if last.Bound != 0 {
		t.Fatalf("exact run trace must end at bound 0, got %g", last.Bound)
	}
}

func TestUnobservedHandlerUnchanged(t *testing.T) {
	h, _, _ := testHandler(t)
	// Ensure no leftover instrumentation from other tests.
	storage.Observe(nil)
	core.Observe(nil)
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
