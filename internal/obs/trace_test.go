package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
	ctx := WithRequestID(context.Background(), "abc-000001")
	if got := RequestID(ctx); got != "abc-000001" {
		t.Fatalf("RequestID = %q", got)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID on bare context = %q", got)
	}
}

func TestNilSinksAndTraces(t *testing.T) {
	var o *Observer
	if o.Profiles() != nil {
		t.Fatal("nil observer must list no runs")
	}
	if retained, capacity, total := o.RingStats(); retained != 0 || capacity != 0 || total != 0 {
		t.Fatal("nil observer ring reads must be zero")
	}
	if p := o.StartRun("x", ""); p == nil {
		t.Fatal("nil observer must still hand out a working recorder")
	}
	rec := httptest.NewRecorder()
	o.ProfilesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles", nil))
	if rec.Code != 404 {
		t.Fatalf("nil observer /debug/profiles status %d, want 404", rec.Code)
	}
}

func TestObserverHandlers(t *testing.T) {
	o := NewObserver()
	o.Registry.Counter("test_handler_total", "Handler.").Inc()
	run := o.StartRun("r", "label")
	run.Begin(0, 1, 0)
	run.RecordStep(1, 0, 0, 0, true)
	o.StartRun("other", "")

	rec := httptest.NewRecorder()
	o.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_handler_total 1") {
		t.Fatalf("/metrics body missing counter:\n%s", rec.Body)
	}

	rec = httptest.NewRecorder()
	o.ProfilesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/profiles status %d", rec.Code)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
		t.Fatalf("profile dump not JSON: %v", err)
	}
	if len(keys) != 2 || keys["profiles"] == nil || keys["profiles_total"] == nil {
		t.Fatalf("profile dump keys: %s", rec.Body)
	}

	// ?request_id= keeps the one run recorded under that ID.
	rec = httptest.NewRecorder()
	o.ProfilesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles?request_id=r", nil))
	var dump ProfileDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("profile dump not JSON: %v", err)
	}
	if dump.ProfilesTotal != 2 || len(dump.Profiles) != 1 || dump.Profiles[0].ID != "r" || !dump.Profiles[0].Finished || !dump.Profiles[0].Done {
		t.Fatalf("run dump: %+v", dump.Profiles)
	}
	if pts := dump.Profiles[0].Bound; len(pts) != 2 || pts[0].Bound != 1 || pts[1].Retrieved != 1 {
		t.Fatalf("run points: %+v", pts)
	}

	// ?slow=1 keeps the runs flagged slow, live ones included.
	run.MarkSlow()
	rec = httptest.NewRecorder()
	o.ProfilesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles?slow=1", nil))
	dump = ProfileDump{}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("profile dump not JSON: %v", err)
	}
	if len(dump.Profiles) != 1 || dump.Profiles[0].ID != "r" || !dump.Profiles[0].Slow {
		t.Fatalf("slow dump: %+v", dump.Profiles)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var sb strings.Builder
	log, err := NewLogger("json", 0, &sb)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello", "k", "v")
	var line map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &line); err != nil {
		t.Fatalf("json log line not JSON: %v (%q)", err, sb.String())
	}
	if line["msg"] != "hello" || line["k"] != "v" {
		t.Fatalf("log line: %v", line)
	}
	if _, err := NewLogger("xml", 0, &sb); err == nil {
		t.Fatal("unknown format must error")
	}
	ctx := WithLogger(context.Background(), log)
	if Logger(ctx) != log {
		t.Fatal("context logger not returned")
	}
	if Logger(context.Background()) == nil {
		t.Fatal("bare context must yield a usable discard logger")
	}
}
