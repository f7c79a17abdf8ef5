// Package obs is the observability layer of the system: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket histograms with
// Prometheus text exposition), a lightweight tracing facility (per-request
// spans carried via context.Context into a ring-buffer sink, plus per-run
// progressive traces recording the Theorem-1 error-bound trajectory), and
// slog-based structured logging helpers.
//
// The paper's whole point is progressive behaviour — after any retrieval
// prefix the estimates are usable and carry bounds — and this package makes
// that behaviour observable in production: operators can watch the bound
// decay per run, retrieval latency per layer, and degradation (skips,
// retries, injected faults) live, instead of reading one-off experiment
// harness output.
//
// Two design rules govern everything here:
//
//   - Stdlib only. The registry speaks the Prometheus text exposition format
//     directly; no client library is vendored.
//   - Nil is off, and off is free. Every metric method has a nil-receiver
//     fast path, so instrumented packages hold plain metric pointers that
//     are nil until an Observe call installs a registry. The hot paths of
//     the evaluation engine pay one predictable branch and zero allocations
//     when no collector is registered (pinned by BenchmarkNil* and
//     BENCH_obs.json).
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative to keep the counter monotone; negative
// deltas are ignored).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down. The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of float64 observations (seconds,
// for latency histograms). Buckets are cumulative in the exposition, exactly
// as Prometheus expects. A nil *Histogram is a no-op.
type Histogram struct {
	// bounds are the inclusive upper bounds of the buckets, ascending; the
	// implicit +Inf bucket is counts[len(bounds)].
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencyBuckets is the default bucket layout for latency histograms, in
// seconds: 500ns to 2.5s in coarse 1-2.5-5 decades — wide enough to cover an
// in-memory Get (tens of ns land in the first bucket) and a faulted,
// retried, remote fetch alike.
var LatencyBuckets = []float64{
	5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5,
}

// Label is one metric dimension. Metrics with the same family name and
// different label sets are distinct children of one family.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric family: a name, a type, and children keyed by
// rendered label signature. A family is pushed (its children are Counters,
// Gauges or Histograms somebody writes) or read (its children are the
// readChilds of ReadGroups), never both: every number has one owner.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram bucket bounds
	read   bool

	order    []string // label signatures in registration order
	children map[string]any
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use. A nil
// *Registry is valid: every constructor returns nil, which every metric
// method treats as "off" — the universal kill switch for instrumentation.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	gathers  []func() any // one per ReadGroup: its owner's snapshot, boxed
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// signature renders labels as the exposition's label block (`{k="v",…}`), or
// "" when there are none. Registration order of the keys is preserved —
// callers use a consistent order per family.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns (creating if needed) the family and the child for the label
// signature. A nil read makes the pushed child of the kind; a read family
// passes its child, and re-declaring a read child replaces it. It panics on
// inconsistent registration — mixed kinds, a name both pushed and read, or
// invalid names are programmer errors, caught at process start where Observe
// calls live.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label, read *readChild) any {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l.Key) || l.Key == "le" {
			panic("obs: invalid label key " + strconv.Quote(l.Key) + " on " + name)
		}
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]*family)
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, read: read != nil, children: make(map[string]any)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered as a different kind")
	} else if f.read != (read != nil) {
		panic("obs: metric " + name + " registered both pushed and read")
	}
	c, ok := f.children[sig]
	if ok && read == nil {
		return c
	}
	if !ok {
		f.order = append(f.order, sig)
	}
	switch {
	case read != nil:
		c = read
	case kind == kindCounter:
		c = &Counter{}
	case kind == kindGauge:
		c = &Gauge{}
	default:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Uint64, len(f.bounds)+1)
		c = h
	}
	f.children[sig] = c
	return c
}

// Counter returns (registering on first use) the counter for name and
// labels. On a nil registry it returns nil, which is a valid no-op counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels, nil).(*Counter)
}

// Gauge returns (registering on first use) the gauge for name and labels.
// On a nil registry it returns nil, which is a valid no-op gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels, nil).(*Gauge)
}

// Histogram returns (registering on first use) the histogram for name and
// labels, with the given bucket upper bounds (ascending; nil selects
// LatencyBuckets). On a nil registry it returns nil, which is a valid no-op
// histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds not ascending")
		}
	}
	return r.lookup(name, help, kindHistogram, bounds, labels, nil).(*Histogram)
}

// ReadGroup declares read families: metrics whose numbers a component
// already keeps and reports through its own Stats(), so the registry reads
// them at exposition time instead of being written beside them. The group's
// gather function is called once per WritePrometheus or Snapshot and every
// family of the group is valued from that one result, so the families are as
// consistent with each other as what gather returns. A nil *ReadGroup (from
// a nil registry) declares nothing.
type ReadGroup[T any] struct {
	r   *Registry
	src int // the group's gather in r.gathers
}

// ReadFrom starts a group of read families on r, all valued from gather.
func ReadFrom[T any](r *Registry, gather func() T) *ReadGroup[T] {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gathers = append(r.gathers, func() any {
		got := gather()
		return &got
	})
	return &ReadGroup[T]{r: r, src: len(r.gathers) - 1}
}

// ReadCounter declares the counter for name and labels as value of the
// group's gathered result. The owner keeps it monotone.
func (g *ReadGroup[T]) ReadCounter(name, help string, value func(*T) int64, labels ...Label) {
	g.declare(name, help, kindCounter, value, labels)
}

// ReadGauge declares the gauge for name and labels as value of the group's
// gathered result.
func (g *ReadGroup[T]) ReadGauge(name, help string, value func(*T) int64, labels ...Label) {
	g.declare(name, help, kindGauge, value, labels)
}

func (g *ReadGroup[T]) declare(name, help string, kind metricKind, value func(*T) int64, labels []Label) {
	if g != nil {
		g.r.lookup(name, help, kind, nil, labels,
			&readChild{src: g.src, value: func(got any) int64 { return value(got.(*T)) }})
	}
}

// readChild is the child of a read family: value of what gather src
// returned.
type readChild struct {
	src   int
	value func(got any) int64
}

// gatherAll calls every group's gather once. It runs outside the registry
// lock: a gather takes its owner's locks, and nothing stops an owner from
// touching the registry under them.
func (r *Registry) gatherAll() []any {
	r.mu.Lock()
	gathers := r.gathers
	r.mu.Unlock()
	got := make([]any, len(gathers))
	for i, gather := range gathers {
		got[i] = gather()
	}
	return got
}

// of returns the child's number from what gatherAll returned; a child whose
// group was started after that has none yet.
func (c *readChild) of(got []any) (int64, bool) {
	if c.src >= len(got) {
		return 0, false
	}
	return c.value(got[c.src]), true
}

// fnum renders a float in the exposition's number format.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4) to w. Families appear in registration order; children in
// their registration order; histogram buckets are cumulative and end with
// the +Inf bucket, followed by _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var buf bytes.Buffer
	got := r.gatherAll()
	r.mu.Lock()
	for _, f := range r.families {
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.kind)
		for _, sig := range f.order {
			switch m := f.children[sig].(type) {
			case *readChild:
				if v, ok := m.of(got); ok {
					fmt.Fprintf(&buf, "%s%s %d\n", f.name, sig, v)
				}
			case *Counter:
				fmt.Fprintf(&buf, "%s%s %d\n", f.name, sig, m.Value())
			case *Gauge:
				fmt.Fprintf(&buf, "%s%s %d\n", f.name, sig, m.Value())
			case *Histogram:
				cum := uint64(0)
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(&buf, "%s_bucket%s %d\n", f.name, bucketSig(sig, fnum(bound)), cum)
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(&buf, "%s_bucket%s %d\n", f.name, bucketSig(sig, "+Inf"), cum)
				fmt.Fprintf(&buf, "%s_sum%s %s\n", f.name, sig, fnum(m.Sum()))
				fmt.Fprintf(&buf, "%s_count%s %d\n", f.name, sig, m.Count())
			}
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// bucketSig merges a child's label signature with the bucket's le label.
func bucketSig(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return sig[:len(sig)-1] + `,le="` + le + `"}`
}

// Snapshot returns every counter and gauge (and each histogram's _count and
// _sum), keyed by name plus rendered label signature — e.g.
// "wvq_sched_submitted_total" or `wvq_http_requests_total{endpoint="/query"}`
// — collected in one pass, as WritePrometheus collects them. Pushed values
// are independent atomics: the pass does not stop their writers, so two of
// them are not a joint point-in-time read. The read families of one group
// are as consistent with each other as their owner's Stats(), because they
// are one call of it.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	got := r.gatherAll()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		for _, sig := range f.order {
			switch m := f.children[sig].(type) {
			case *readChild:
				if v, ok := m.of(got); ok {
					out[f.name+sig] = float64(v)
				}
			case *Counter:
				out[f.name+sig] = float64(m.Value())
			case *Gauge:
				out[f.name+sig] = float64(m.Value())
			case *Histogram:
				out[f.name+"_count"+sig] = float64(m.Count())
				out[f.name+"_sum"+sig] = m.Sum()
			}
		}
	}
	return out
}

// Families returns the registered family names in registration order (test
// and diagnostic hook).
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.families))
	for i, f := range r.families {
		names[i] = f.name
	}
	return names
}

// sortedKeys is a small helper for deterministic test output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
