package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSpanParentChildAndSink(t *testing.T) {
	sink := NewSpanSink(8)
	ctx := WithTrace(context.Background(), "trace-1", sink)
	if got := TraceID(ctx); got != "trace-1" {
		t.Fatalf("TraceID = %q", got)
	}

	ctx1, parent := StartSpan(ctx, "outer")
	_, child := StartSpan(ctx1, "inner")
	child.SetAttr("keys", "3")
	child.SetError(errors.New("boom"))
	child.End()
	parent.End()

	spans := sink.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Children end first, so the sink holds inner then outer.
	inner, outer := spans[0], spans[1]
	if inner.Name != "inner" || outer.Name != "outer" {
		t.Fatalf("span order: %q, %q", inner.Name, outer.Name)
	}
	if inner.ParentID != outer.SpanID {
		t.Fatalf("inner.ParentID = %d, outer.SpanID = %d", inner.ParentID, outer.SpanID)
	}
	if outer.ParentID != 0 {
		t.Fatalf("outer must be a root span, ParentID = %d", outer.ParentID)
	}
	if inner.TraceID != "trace-1" || outer.TraceID != "trace-1" {
		t.Fatal("trace IDs not propagated")
	}
	if len(inner.Attrs) != 1 || inner.Attrs[0].Key != "keys" || inner.Attrs[0].Value != "3" {
		t.Fatalf("inner attrs: %v", inner.Attrs)
	}
	if inner.Err != "boom" {
		t.Fatalf("inner error: %q", inner.Err)
	}
	if sink.Total() != 2 {
		t.Fatalf("total = %d", sink.Total())
	}
}

func TestStartSpanUntracedIsNil(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("untraced context must yield a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("untraced context must be returned unchanged")
	}
	// All methods on the nil span are no-ops.
	sp.SetAttr("k", "v")
	sp.SetError(errors.New("x"))
	sp.End()
}

func TestSpanSinkRingOverwrite(t *testing.T) {
	sink := NewSpanSink(4)
	ctx := WithTrace(context.Background(), "t", sink)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	spans := sink.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if sink.Total() != 10 {
		t.Fatalf("total = %d, want 10", sink.Total())
	}
	// Oldest first: the retained spans are the last four started.
	for i := 1; i < len(spans); i++ {
		if spans[i].SpanID <= spans[i-1].SpanID {
			t.Fatalf("spans not oldest-first: %d then %d", spans[i-1].SpanID, spans[i].SpanID)
		}
	}
}

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
	var sink *SpanSink
	if sink.Spans() != nil || sink.Total() != 0 {
		t.Fatal("nil span sink reads must be empty")
	}
	ctx := WithTrace(context.Background(), "id", nil)
	if _, sp := StartSpan(ctx, "s"); sp != nil {
		t.Fatal("WithTrace(nil sink) must keep tracing off")
	}
	var o *Observer
	if runs, total := o.Runs(); runs != nil || total != 0 {
		t.Fatal("nil observer must list no runs")
	}
	if p := o.StartRun("x", ""); p == nil {
		t.Fatal("nil observer must still hand out a working recorder")
	}
	var psink *ProfileSink
	if psink.Snapshots() != nil || psink.Total() != 0 || psink.Slow() != 0 || psink.Len() != 0 || psink.Capacity() != 0 {
		t.Fatal("nil profile sink reads must be empty")
	}
}

func TestObserverHandlers(t *testing.T) {
	o := NewObserver()
	o.Registry.Counter("test_handler_total", "Handler.").Inc()
	ctx := WithTrace(context.Background(), "t", o.Spans)
	_, sp := StartSpan(ctx, "handler-span")
	sp.End()
	run := o.StartRun("r", "label")
	run.Begin(0, 1, 0)
	run.RecordStep(1, 0, 0, 0, true)

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
	o.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces status %d", rec.Code)
	}
	var dump TraceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("trace dump not JSON: %v", err)
	}
	if dump.SpansTotal != 1 || len(dump.Spans) != 1 || dump.Spans[0].Name != "handler-span" {
		t.Fatalf("span dump: %+v", dump)
	}
	if dump.RunsTotal != 1 || len(dump.Runs) != 1 || !dump.Runs[0].Finished || !dump.Runs[0].Done {
		t.Fatalf("run dump: %+v", dump.Runs)
	}
	if pts := dump.Runs[0].Points; len(pts) != 2 || pts[0].Bound != 1 || pts[1].Retrieved != 1 {
		t.Fatalf("run points: %+v", pts)
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
