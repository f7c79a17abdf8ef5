package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Tracing: per-request/per-run spans carried via context.Context into a
// fixed-size ring-buffer sink, dumpable at /debug/traces. The design trades
// completeness for cost — the sink keeps the last N finished spans, which is
// what an operator needs to answer "what did the slow request just do" —
// and the off switch is structural: a context without a trace makes
// StartSpan return a nil span whose methods are no-ops, so un-traced
// requests pay one context lookup per span site and nothing else.

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings so the hot path never reflects.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one finished span as stored in the sink.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// RequestID is the request the span served, as a first-class field:
	// concurrent runs interleave in the ring, and profile assembly and the
	// /debug/traces?request_id= filter select on it exactly, never by
	// substring-matching attrs.
	RequestID string        `json:"request_id,omitempty"`
	Name      string        `json:"name"`
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"duration_ns"`
	Attrs     []Attr        `json:"attrs,omitempty"`
	Err       string        `json:"error,omitempty"`
}

// SpanSink is a fixed-capacity ring of finished spans. Concurrent spans
// from any number of goroutines record into one sink; when full, the oldest
// spans are overwritten.
type SpanSink struct {
	spans *ring[Span]
	ids   atomic.Uint64
}

// DefaultSpanCapacity is the sink size NewObserver uses.
const DefaultSpanCapacity = 512

// NewSpanSink returns a sink holding the last capacity finished spans
// (capacity ≤ 0 selects DefaultSpanCapacity).
func NewSpanSink(capacity int) *SpanSink {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanSink{spans: newRing[Span](capacity)}
}

// Spans returns the retained spans, oldest first.
func (s *SpanSink) Spans() []Span {
	if s == nil {
		return nil
	}
	return s.spans.items()
}

// Total returns the number of spans ever recorded (including overwritten
// ones).
func (s *SpanSink) Total() uint64 {
	if s == nil {
		return 0
	}
	return s.spans.added()
}

// ActiveSpan is an in-progress span. A nil *ActiveSpan (returned by
// StartSpan on an un-traced context) is a no-op.
type ActiveSpan struct {
	sink *SpanSink
	rec  Span
}

// SetAttr annotates the span. Values are plain strings; render numbers with
// strconv at the call site.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a != nil {
		a.rec.Attrs = append(a.rec.Attrs, Attr{Key: key, Value: value})
	}
}

// SetError records err's message on the span (nil err is ignored).
func (a *ActiveSpan) SetError(err error) {
	if a != nil && err != nil {
		a.rec.Err = err.Error()
	}
}

// End finishes the span and records it into the sink. End is not
// idempotent; call it exactly once (defer-friendly).
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.rec.Duration = time.Since(a.rec.Start)
	a.sink.spans.add(a.rec)
}

// traceKey carries the active trace through a context.
type traceKey struct{}

type traceCtx struct {
	id     string
	sink   *SpanSink
	parent uint64
}

// WithTrace returns ctx carrying a trace: spans started below record into
// sink under the given trace ID. A nil sink returns ctx unchanged (tracing
// stays off).
func WithTrace(ctx context.Context, traceID string, sink *SpanSink) context.Context {
	if sink == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, traceCtx{id: traceID, sink: sink})
}

// TraceID returns the context's trace ID, or "" when untraced.
func TraceID(ctx context.Context) string {
	if tc, ok := ctx.Value(traceKey{}).(traceCtx); ok {
		return tc.id
	}
	return ""
}

// StartSpan starts a span named name if ctx carries a trace, returning a
// derived context under which further spans become children. On an untraced
// context it returns ctx unchanged and a nil span whose methods are no-ops —
// the zero-cost off switch.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	if !ok {
		return ctx, nil
	}
	sp := &ActiveSpan{
		sink: tc.sink,
		rec: Span{
			TraceID:   tc.id,
			SpanID:    tc.sink.ids.Add(1),
			ParentID:  tc.parent,
			RequestID: RequestID(ctx),
			Name:      name,
			Start:     time.Now(),
		},
	}
	child := traceCtx{id: tc.id, sink: tc.sink, parent: sp.rec.SpanID}
	return context.WithValue(ctx, traceKey{}, child), sp
}

// Request IDs: a cheap, unique-per-process correlation ID attached to every
// HTTP request by the server middleware and threaded through logs, spans and
// run recorders.

type requestIDKey struct{}

var (
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fallback: time-derived prefix; uniqueness within the process
			// still holds via the counter.
			binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:]))
	}()
	reqCounter atomic.Uint64
)

// NewRequestID returns a process-unique request ID: a random per-process
// prefix plus a sequence number.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06d", reqPrefix, reqCounter.Add(1))
}

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, or "" when none was attached.
func RequestID(ctx context.Context) string {
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		return id
	}
	return ""
}
