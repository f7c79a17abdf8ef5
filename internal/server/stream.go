package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// stream serves POST /query/stream: the request executes exactly like
// /query, but every scheduler slice's snapshot is delivered as a Server-Sent
// Event while the run advances. Events:
//
//	event: progress  — intermediate estimate with per-query error bounds;
//	                   bounds tighten monotonically as retrievals grow
//	event: done      — final state (exact, or the budget/deadline cut)
//	event: error     — the run was cancelled before producing a result
//	event: profile   — terminal EXPLAIN ANALYZE snapshot (only with
//	                   ?explain=1; follows done or error)
//
// The stream is driven by the scheduler's latest-wins progress channel: a
// slow client skips intermediate snapshots instead of stalling the run.
func (h *Handler) stream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := h.admit(w, r)
	if sub == nil {
		return
	}
	defer sub.cancel()
	defer sub.release()
	if h.met != nil {
		h.met.sseStreams.Inc()
		defer h.met.sseStreams.Dec()
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case p := <-sub.ticket.Progress():
			if p.Done {
				// The final snapshot also arrives via Done/Final below;
				// emitting it here as "progress" would duplicate it.
				continue
			}
			writeEvent(w, flusher, "progress", sub.response(p, false))
		case <-sub.ticket.Done():
			final, err := sub.ticket.Final()
			profSnap := h.finishProfile(r.Context(), sub)
			if final.Degraded && h.met != nil {
				h.met.degraded.Inc()
			}
			switch {
			case err == nil:
				writeEvent(w, flusher, "done", sub.response(final, false))
			case errors.Is(err, context.DeadlineExceeded) && final.Retrieved > 0:
				writeEvent(w, flusher, "done", sub.response(final, true))
			default:
				writeEvent(w, flusher, "error", map[string]string{"error": err.Error()})
			}
			// ?explain=1 streams end with the profile as its own terminal
			// event, keeping the "done" payload identical to the unprofiled
			// shape.
			if profSnap != nil {
				writeEvent(w, flusher, "profile", profSnap)
			}
			return
		}
	}
}

// writeEvent emits one SSE frame and flushes it to the client.
func writeEvent(w http.ResponseWriter, flusher http.Flusher, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	flusher.Flush()
}
