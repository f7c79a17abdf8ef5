package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
)

// Observer bundles the observability facilities — metrics registry, run
// recorders, query-profile sink, and structured logger — so layers take one
// handle instead of four. Any field may be nil; every consumer treats nil
// as "off".
type Observer struct {
	Registry *Registry
	Profiles *ProfileSink
	Log      *slog.Logger
	// runs holds the recorders of the last DefaultProfileCapacity observed
	// runs, live ones included (/debug/traces).
	runs *ring[*QueryProfile]
}

// NewObserver returns an Observer with a fresh registry, default-capacity
// run and profile rings, and a discard logger (replace Log to get output).
func NewObserver() *Observer {
	return &Observer{
		Registry: NewRegistry(),
		Profiles: &ProfileSink{profiles: newRing[ProfileSnapshot](DefaultProfileCapacity)},
		Log:      NopLogger(),
		runs:     newRing[*QueryProfile](DefaultProfileCapacity),
	}
}

// StartRun starts the recorder of one observed run under the given ID
// (conventionally the request ID) and label (e.g. the query batch text) and
// lists it at /debug/traces, live and after it finishes. A nil observer
// returns a recorder nobody lists.
func (o *Observer) StartRun(id, label string) *QueryProfile {
	p := NewQueryProfile(id, label)
	if o != nil && o.runs != nil {
		o.runs.add(p)
	}
	return p
}

// Runs returns the listed runs, oldest first, live ones included, and the
// number of runs ever started.
func (o *Observer) Runs() ([]RunSnapshot, uint64) {
	if o == nil || o.runs == nil {
		return nil, 0
	}
	recs := o.runs.items()
	out := make([]RunSnapshot, len(recs))
	for i, p := range recs {
		out[i] = p.run()
	}
	return out, o.runs.added()
}

// Logger returns the observer's logger, or a discard logger when unset —
// callers never need a nil check.
func (o *Observer) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return NopLogger()
	}
	return o.Log
}

// MetricsHandler serves the registry in Prometheus text exposition format
// (mounted at /metrics on the debug listener).
func (o *Observer) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.Registry == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Registry.WritePrometheus(w); err != nil {
			// The write already started; nothing useful to send the client.
			o.Logger().Warn("metrics write failed", "err", err)
		}
	})
}

// TraceDump is the JSON shape served at /debug/traces.
type TraceDump struct {
	// Runs is the listed runs (bound trajectories), oldest first,
	// including live runs.
	Runs []RunSnapshot `json:"runs"`
	// RunsTotal counts runs ever started.
	RunsTotal uint64 `json:"runs_total"`
}

// TracesHandler serves the run list as JSON (mounted at /debug/traces on
// the debug listener). `?request_id=` keeps the runs whose ID matches
// exactly.
func (o *Observer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		reqID := r.URL.Query().Get("request_id")
		runs, runsTotal := o.Runs()
		o.writeDump(w, "trace", TraceDump{
			Runs:      keep(runs, func(rs RunSnapshot) bool { return reqID == "" || rs.ID == reqID }),
			RunsTotal: runsTotal,
		})
	})
}

// ProfileDump is the JSON shape served at /debug/profiles.
type ProfileDump struct {
	// Profiles is the profile ring, oldest first.
	Profiles []ProfileSnapshot `json:"profiles"`
	// ProfilesTotal counts profiles ever recorded, including overwritten
	// ones; SlowTotal the subset flagged slow.
	ProfilesTotal uint64 `json:"profiles_total"`
	SlowTotal     uint64 `json:"slow_total"`
}

// ProfilesHandler serves the query-profile ring as JSON (mounted at
// /debug/profiles on the debug listener). `?request_id=` keeps profiles
// whose ID matches exactly; `?slow=1` keeps only slow-flagged profiles.
func (o *Observer) ProfilesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.Profiles == nil {
			http.Error(w, "profiling disabled", http.StatusNotFound)
			return
		}
		reqID := r.URL.Query().Get("request_id")
		slowOnly := r.URL.Query().Get("slow") == "1"
		o.writeDump(w, "profile", ProfileDump{
			Profiles: keep(o.Profiles.Snapshots(), func(p ProfileSnapshot) bool {
				return (reqID == "" || p.ID == reqID) && (!slowOnly || p.Slow)
			}),
			ProfilesTotal: o.Profiles.Total(),
			SlowTotal:     o.Profiles.Slow(),
		})
	})
}

// keep returns the values that pass ok, never nil: a dump lists an empty
// section as [], not null.
func keep[T any](values []T, ok func(T) bool) []T {
	out := make([]T, 0, len(values))
	for _, v := range values {
		if ok(v) {
			out = append(out, v)
		}
	}
	return out
}

// writeDump serves one debug dump as indented JSON.
func (o *Observer) writeDump(w http.ResponseWriter, what string, dump any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dump); err != nil {
		o.Logger().Warn(what+" dump write failed", "err", err)
	}
}
