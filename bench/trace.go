package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one interval of the traced pass. Client spans are measured by this
// process; server spans are laid out from the ?explain=1 profile of the same
// request (its phases carry durations, not offsets, so their placement
// inside the request is reconstructed — see README "How to read a trace");
// layer spans are the in-process calls of layers.go.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Request string `json:"request,omitempty"`
}

// tracer keeps spans in memory until the run ends; a nil tracer records
// nothing, which is how the timed pass runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(parent int, name, request string, start, end time.Time) int {
	return t.addNS(parent, name, request, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds())
}

func (t *tracer) addNS(parent int, name, request string, startNS, endNS int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: startNS, EndNS: endNS, Request: request})
	return id
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover (overlapping children are not counted twice, and a
// child sticking out of its parent only counts where it overlaps).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// traceFile is the shape of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	// SelfNS sums self time by span name: where the traced pass's time went.
	SelfNS map[string]int64 `json:"self_ns_by_name"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	byName := map[string]int64{}
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfNS: byName})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sinceNS(t time.Time) int64 { return time.Since(t).Nanoseconds() }
