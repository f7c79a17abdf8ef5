package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseExposition parses Prometheus text exposition into samples keyed by
// "name{labels}" plus the set of TYPE declarations, failing the test on any
// malformed line. It is deliberately strict: every non-comment line must be
// `<id> <number>`, every sample must follow a HELP/TYPE header for its
// family.
func parseExposition(t *testing.T, text string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	types = make(map[string]string)
	helped := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			if !helped[parts[0]] {
				t.Fatalf("TYPE before HELP for %s", parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		id, num := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(num, 64)
		if err != nil && num != "+Inf" {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := id
		if i := strings.IndexByte(id, '{'); i >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("unterminated label block: %q", line)
			}
			name = id[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if types[name] == "" && types[base] == "" {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		if _, dup := samples[id]; dup {
			t.Fatalf("duplicate sample %q", id)
		}
		samples[id] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

func scrape(t *testing.T, r *Registry) (map[string]float64, map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, buf.String())
}

func TestExpositionParseBack(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	labeled := r.Counter("test_requests_total", "Requests.", L("code", "200"))
	g := r.Gauge("test_depth", "Depth.")
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})

	c.Add(3)
	labeled.Inc()
	g.Set(-7)
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	samples, types := scrape(t, r)
	if types["test_ops_total"] != "counter" || types["test_depth"] != "gauge" ||
		types["test_latency_seconds"] != "histogram" {
		t.Fatalf("wrong TYPE declarations: %v", types)
	}
	if samples["test_ops_total"] != 3 {
		t.Fatalf("counter: got %v", samples["test_ops_total"])
	}
	if samples[`test_requests_total{code="200"}`] != 1 {
		t.Fatalf("labeled counter missing: %v", samples)
	}
	if samples["test_depth"] != -7 {
		t.Fatalf("gauge: got %v", samples["test_depth"])
	}
	// Buckets are cumulative and end at +Inf == _count.
	buckets := []struct {
		le   string
		want float64
	}{{"0.01", 2}, {"0.1", 3}, {"1", 4}, {"+Inf", 5}}
	prev := 0.0
	for _, b := range buckets {
		id := fmt.Sprintf(`test_latency_seconds_bucket{le="%s"}`, b.le)
		got, ok := samples[id]
		if !ok {
			t.Fatalf("missing bucket %s", id)
		}
		if got != b.want {
			t.Fatalf("bucket %s: got %v want %v", id, got, b.want)
		}
		if got < prev {
			t.Fatalf("bucket %s not cumulative", id)
		}
		prev = got
	}
	if samples["test_latency_seconds_count"] != 5 {
		t.Fatalf("histogram count: got %v", samples["test_latency_seconds_count"])
	}
	if math.Abs(samples["test_latency_seconds_sum"]-5.56) > 1e-12 {
		t.Fatalf("histogram sum: got %v", samples["test_latency_seconds_sum"])
	}
}

func TestCountersMonotoneAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_mono_total", "Monotone.")
	h := r.Histogram("test_mono_seconds", "Monotone histogram.", nil)
	var prev map[string]float64
	for round := 0; round < 5; round++ {
		c.Add(int64(round))
		h.Observe(float64(round) / 100)
		cur, _ := scrape(t, r)
		if prev != nil {
			for id, was := range prev {
				if cur[id] < was {
					t.Fatalf("round %d: %s went backwards: %v -> %v", round, id, was, cur[id])
				}
			}
		}
		prev = cur
	}
	if prev["test_mono_total"] != 0+1+2+3+4 {
		t.Fatalf("final counter: %v", prev["test_mono_total"])
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_neg_total", "Negative deltas ignored.")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("got %d", c.Value())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_escape_total", "Escaping.", L("q", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `test_escape_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped sample %q not found in:\n%s", want, buf.String())
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_kind_total", "A counter.")
	mustPanic(t, "kind mismatch", func() { r.Gauge("test_kind_total", "Now a gauge.") })
	mustPanic(t, "invalid name", func() { r.Counter("1bad", "Bad name.") })
	mustPanic(t, "reserved le label", func() {
		r.Histogram("test_le_seconds", "Bad label.", nil, L("le", "1"))
	})
	mustPanic(t, "non-ascending bounds", func() {
		r.Histogram("test_bounds_seconds", "Bad bounds.", []float64{1, 1})
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestSnapshotKeys(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_snap_total", "Snap.").Add(2)
	r.Gauge("test_snap_depth", "Snap.").Set(4)
	r.Histogram("test_snap_seconds", "Snap.", nil, L("op", "get")).Observe(0.25)
	snap := r.Snapshot()
	if snap["test_snap_total"] != 2 || snap["test_snap_depth"] != 4 {
		t.Fatalf("snapshot: %v", snap)
	}
	if snap[`test_snap_seconds_count{op="get"}`] != 1 {
		t.Fatalf("histogram count key missing: %v", sortedKeys(snap))
	}
	if math.Abs(snap[`test_snap_seconds_sum{op="get"}`]-0.25) > 1e-12 {
		t.Fatalf("histogram sum key: %v", snap)
	}
}

// TestReadFamilies: a read group is gathered once per exposition and every
// family of it is valued from that one result, beside the pushed families
// and in registration order; a name cannot be both pushed and read.
func TestReadFamilies(t *testing.T) {
	type owner struct{ done, queued int64 }
	r := NewRegistry()
	r.Counter("test_pushed_total", "Pushed.").Add(7)
	gathers := 0
	g := ReadFrom(r, func() owner {
		gathers++
		return owner{done: int64(10 * gathers), queued: int64(gathers)}
	})
	g.ReadCounter("test_done_total", "Read.", func(o *owner) int64 { return o.done })
	g.ReadGauge("test_queued", "Read.", func(o *owner) int64 { return o.queued }, L("queue", "a"))

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP test_pushed_total Pushed.\n# TYPE test_pushed_total counter\ntest_pushed_total 7\n" +
		"# HELP test_done_total Read.\n# TYPE test_done_total counter\ntest_done_total 10\n" +
		"# HELP test_queued Read.\n# TYPE test_queued gauge\ntest_queued{queue=\"a\"} 1\n"
	if buf.String() != want || gathers != 1 {
		t.Fatalf("after %d gathers:\n%s", gathers, buf.String())
	}
	snap := r.Snapshot()
	if snap["test_done_total"] != 20 || snap[`test_queued{queue="a"}`] != 2 || snap["test_pushed_total"] != 7 || gathers != 2 {
		t.Fatalf("snapshot after %d gathers: %v", gathers, snap)
	}

	mustPanic(t, "pushed name declared read", func() {
		g.ReadCounter("test_pushed_total", "Pushed.", func(o *owner) int64 { return o.done })
	})
	mustPanic(t, "read name registered pushed", func() { r.Counter("test_done_total", "Read.") })

	// A later group that declares the same child takes it over.
	ReadFrom(r, func() owner { return owner{done: 99} }).
		ReadCounter("test_done_total", "Read.", func(o *owner) int64 { return o.done })
	if got := r.Snapshot()["test_done_total"]; got != 99 {
		t.Fatalf("re-declared read child = %v, want 99", got)
	}

	var none *Registry
	ReadFrom(none, func() owner { return owner{} }).
		ReadGauge("test_off", "Off.", func(o *owner) int64 { return o.queued })
}

func TestNilRegistryAndNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	g := r.Gauge("x", "h")
	h := r.Histogram("x_seconds", "h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	g.Dec()
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil || r.Families() != nil {
		t.Fatal("nil registry reads must be empty")
	}
}

// The "off is free" contract: with no registry observed, metric calls on nil
// receivers must not allocate.
func TestNilFastPathZeroAllocs(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(7)
		g.Set(3)
		g.Add(-1)
		h.Observe(0.001)
	}); n != 0 {
		t.Fatalf("nil metric ops allocated %v times per run", n)
	}
	var tr *RunTrace
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(1, 0.5, 0)
		tr.Finish(true, 2, 0, 0)
	}); n != 0 {
		t.Fatalf("nil run-trace ops allocated %v times per run", n)
	}
	var sp *ActiveSpan
	if n := testing.AllocsPerRun(100, func() {
		sp.SetAttr("k", "v")
		sp.SetError(nil)
		sp.End()
	}); n != 0 {
		t.Fatalf("nil span ops allocated %v times per run", n)
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}

func BenchmarkNilRunTraceRecord(b *testing.B) {
	var t *RunTrace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Record(i, 1, 0)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "Bench.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "Bench.", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}
