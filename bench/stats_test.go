package main

import (
	"bufio"
	"math"
	"strings"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50, 0.25: 20} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

// A percentile is stated only with ten samples beyond it.
func TestSupportRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{{0.9, 99, false}, {0.9, 100, true}, {0.99, 999, false}, {0.99, 1000, true}} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The crossing is judged post hoc against the final answers: bounds fall
// 900 → 300 → 90 → 0 and the largest final answer is 2, so with eps 60 the
// limit is 120 and the third event is the first under it.
func TestTboundCrossing(t *testing.T) {
	points := []boundPoint{{1, 1024, 900}, {2, 2048, 300}, {3, 3072, 90}, {4, 4000, 0}}
	final := []float64{-2, 1.5, 0}
	if got := tboundCrossing(points, final, 60); got != 2 {
		t.Errorf("crossing at event %d, want 2", got)
	}
	if got := tboundCrossing(points, final, 1000); got != 0 {
		t.Errorf("a lax eps should cross at the first event, got %d", got)
	}
	if got := tboundCrossing(points, final, 0); got != 3 {
		t.Errorf("eps 0 should cross only at done, got %d", got)
	}
	if got := tboundCrossing(points[:3], final, 0); got != -1 {
		t.Errorf("no crossing should give -1, got %d", got)
	}
}

func TestMaxPairwiseRel(t *testing.T) {
	if got := maxPairwiseRel([]float64{10, 11, 10.5}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("maxPairwiseRel = %v, want 0.1", got)
	}
}

func TestReadSSE(t *testing.T) {
	stream := "event: progress\ndata: {\"a\":1}\n\n" +
		": a comment\n" +
		"event: multi\r\ndata: one\r\ndata: two\r\n\r\n" +
		"data:bare\n\n" +
		"event: done\ndata: {}\n\n" +
		"event: cut\ndata: never dispatched"
	type ev struct{ name, data string }
	var got []ev
	err := readSSE(bufio.NewReader(strings.NewReader(stream)), func(name string, data []byte) bool {
		got = append(got, ev{name, string(data)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []ev{{"progress", `{"a":1}`}, {"multi", "one\ntwo"}, {"", "bare"}, {"done", "{}"}}
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	n := 0
	_ = readSSE(bufio.NewReader(strings.NewReader(stream)), func(string, []byte) bool { n++; return false })
	if n != 1 {
		t.Errorf("emit returning false should stop the parser, saw %d events", n)
	}
}

// Self time is a span minus what its direct children cover: overlapping
// children count once, and a child only counts where it lies inside.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},   // overlaps 2 by 10
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 130},  // sticks out by 30
		{ID: 5, Parent: 2, StartNS: 10, EndNS: 25},   // grandchild: not the root's business
		{ID: 6, Parent: 0, StartNS: 200, EndNS: 250}, // childless
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 30 - 15, 3: 30, 4: 40, 5: 15, 6: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
