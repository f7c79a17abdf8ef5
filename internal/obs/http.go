package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
)

// Observer bundles the observability facilities — metrics registry, the
// ring of recent run recorders, and structured logger — so layers take one
// handle instead of three. A nil Registry or Log is "off".
type Observer struct {
	Registry *Registry
	Log      *slog.Logger
	// runs holds the recorders of the last DefaultProfileCapacity observed
	// runs, live ones included (/debug/profiles).
	runs *ring[*QueryProfile]
}

// NewObserver returns an Observer with a fresh registry, a
// default-capacity run ring, and a discard logger (replace Log to get
// output).
func NewObserver() *Observer {
	return &Observer{
		Registry: NewRegistry(),
		Log:      NopLogger(),
		runs:     newRing[*QueryProfile](DefaultProfileCapacity),
	}
}

// StartRun starts the recorder of one observed run under the given ID
// (conventionally the request ID) and label (e.g. the query batch text) and
// lists it at /debug/profiles, live and after it finishes. A nil observer
// returns a recorder nobody lists.
func (o *Observer) StartRun(id, label string) *QueryProfile {
	p := NewQueryProfile(id, label)
	if o != nil && o.runs != nil {
		o.runs.add(p)
	}
	return p
}

// Profiles returns the listed runs' profiles, oldest first, live ones
// included.
func (o *Observer) Profiles() []ProfileSnapshot {
	if o == nil || o.runs == nil {
		return nil
	}
	recs := o.runs.items()
	out := make([]ProfileSnapshot, len(recs))
	for i, p := range recs {
		out[i] = p.Snapshot()
	}
	return out
}

// RingStats reports the run ring: runs currently listed, its depth, and
// runs ever started (overwritten ones included). All zero on nil.
func (o *Observer) RingStats() (retained, capacity int, total uint64) {
	if o == nil || o.runs == nil {
		return 0, 0, 0
	}
	return o.runs.retained(), len(o.runs.buf), o.runs.added()
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

// ProfileDump is the JSON shape served at /debug/profiles.
type ProfileDump struct {
	// Profiles is the run ring's profiles, oldest first, live runs
	// included.
	Profiles []ProfileSnapshot `json:"profiles"`
	// ProfilesTotal counts runs ever started, including overwritten ones.
	ProfilesTotal uint64 `json:"profiles_total"`
}

// ProfilesHandler serves the run ring as JSON (mounted at /debug/profiles
// on the debug listener), each run rendered by QueryProfile.Snapshot.
// `?request_id=` keeps profiles whose ID matches exactly; `?slow=1` keeps
// only slow-flagged profiles.
func (o *Observer) ProfilesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.runs == nil {
			http.Error(w, "profiling disabled", http.StatusNotFound)
			return
		}
		reqID := r.URL.Query().Get("request_id")
		slowOnly := r.URL.Query().Get("slow") == "1"
		_, _, total := o.RingStats()
		dump := ProfileDump{Profiles: []ProfileSnapshot{}, ProfilesTotal: total}
		for _, p := range o.Profiles() {
			if (reqID == "" || p.ID == reqID) && (!slowOnly || p.Slow) {
				dump.Profiles = append(dump.Profiles, p)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(dump); err != nil {
			o.Logger().Warn("profile dump write failed", "err", err)
		}
	})
}
