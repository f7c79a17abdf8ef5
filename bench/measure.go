package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// eventPayload is the JSON of a progress or done event.
type eventPayload struct {
	Exact     bool    `json:"exact"`
	Retrieved int     `json:"retrieved"`
	Distinct  int     `json:"distinct"`
	Version   *uint64 `json:"version"`
	TimedOut  bool    `json:"timed_out"`
	Degraded  bool    `json:"degraded"`
	Results   []struct {
		Query    string   `json:"query"`
		Estimate float64  `json:"estimate"`
		Bound    *float64 `json:"bound"`
	} `json:"results"`
}

// profilePayload is the part of the ?explain=1 profile event the harness
// reads (obs.ProfileSnapshot on the wire).
type profilePayload struct {
	WallNS int64 `json:"wall_ns"`
	StepNS int64 `json:"step_ns"`
	Plan   struct {
		BuildNS int64 `json:"build_ns"`
		SetupNS int64 `json:"setup_ns"`
		QueueNS int64 `json:"queue_ns"`
		Terms   int   `json:"terms"`
	} `json:"plan"`
	Steps []struct {
		DurNS int64 `json:"dur_ns"`
	} `json:"steps"`
	Tiers struct {
		LayoutHot  int64 `json:"layout_hot"`
		LayoutCold int64 `json:"layout_cold"`
		BlockLoads int64 `json:"block_loads"`
		Preads     int64 `json:"preads"`
		MVCCLayer  int64 `json:"mvcc_layer"`
		MVCCBase   int64 `json:"mvcc_base"`
	} `json:"tiers"`
	Shards []struct {
		Shard    int   `json:"shard"`
		Batches  int64 `json:"batches"`
		Keys     int64 `json:"keys"`
		WallNS   int64 `json:"wall_ns"`
		RemoteNS int64 `json:"remote_ns"`
		Bytes    int64 `json:"bytes"`
	} `json:"shards"`
	Bound []struct {
		ElapsedNS int64 `json:"elapsed_ns"`
	} `json:"bound"`
}

// drainFacts is one drain after decoding.
type drainFacts struct {
	ttfeMS, tboundMS, drainMS float64
	tboundFrac                float64 // retrieved / distinct at the crossing
	events                    int     // progress + done
	distinct                  int
	version                   *uint64
	final                     *eventPayload
	profile                   *profilePayload
	// fail is why the drain counts as failed ("" = it does not).
	fail string
}

// decodeDrain turns the raw events of one drain into its facts. A drain
// fails on a transport error, a non-200 status, an `error` event, a missing
// `done`, or a `done` that is not exact (degraded, timed out, cut short).
func decodeDrain(d drain, eps float64) drainFacts {
	var f drainFacts
	if d.err != nil {
		f.fail = d.err.Error()
		return f
	}
	var points []boundPoint
	for _, ev := range d.events {
		switch ev.name {
		case "progress", "done":
			var p eventPayload
			if err := json.Unmarshal(ev.data, &p); err != nil {
				f.fail = fmt.Sprintf("undecodable %s event: %v", ev.name, err)
				return f
			}
			var worst float64
			for _, r := range p.Results {
				if r.Bound != nil {
					worst = math.Max(worst, *r.Bound)
				}
			}
			ms := float64(ev.at.Nanoseconds()) / 1e6
			points = append(points, boundPoint{atMS: ms, retrieved: p.Retrieved, maxBound: worst})
			if ev.name == "done" {
				f.final = &p
				f.drainMS = ms
			}
		case "error":
			f.fail = "error event: " + string(ev.data)
			return f
		case "profile":
			var p profilePayload
			if err := json.Unmarshal(ev.data, &p); err != nil {
				f.fail = fmt.Sprintf("undecodable profile event: %v", err)
				return f
			}
			f.profile = &p
		}
	}
	switch {
	case f.final == nil:
		f.fail = "stream ended without a done event"
		return f
	case !f.final.Exact || f.final.Degraded || f.final.TimedOut:
		f.fail = fmt.Sprintf("done is not exact (exact=%v degraded=%v timed_out=%v retrieved=%d/%d)",
			f.final.Exact, f.final.Degraded, f.final.TimedOut, f.final.Retrieved, f.final.Distinct)
		return f
	}
	f.events = len(points)
	f.distinct = f.final.Distinct
	f.version = f.final.Version
	f.ttfeMS = points[0].atMS
	estimates := make([]float64, len(f.final.Results))
	for i, r := range f.final.Results {
		estimates[i] = r.Estimate
	}
	cross := tboundCrossing(points, estimates, eps)
	if cross < 0 {
		f.fail = "no event met the bound threshold"
		return f
	}
	f.tboundMS = points[cross].atMS
	if f.distinct > 0 {
		f.tboundFrac = float64(points[cross].retrieved) / float64(f.distinct)
	}
	return f
}

// answerTolerance: a full progressive drain adds its terms in importance
// order and Exact adds them in key order, so the two agree to rounding, not
// bit for bit (the repo's own tests compare them at 1e-9).
const answerTolerance = 1e-9

// checkAnswers compares a done event with the reference answers.
func checkAnswers(final *eventPayload, want map[string]float64) string {
	if len(final.Results) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(final.Results), len(want))
	}
	var scale float64 = 1
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for _, r := range final.Results {
		w, ok := want[r.Query]
		if !ok {
			return fmt.Sprintf("unexpected result %q", r.Query)
		}
		if math.Abs(r.Estimate-w) > answerTolerance*scale || math.IsNaN(r.Estimate) {
			return fmt.Sprintf("%s = %v, want %v", r.Query, r.Estimate, w)
		}
	}
	return ""
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	metrics   map[string]metric
	attempted int
	failed    int
	// failures keeps the first few failure reasons for the log.
	failures []string
}

func newResult(w string) *result { return &result{workload: w, metrics: map[string]metric{}} }

func (r *result) set(name string, v float64) {
	def, ok := metricByName[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.metrics[name] = metric{Value: v, Unit: def.Unit}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}
