package main

import (
	"context"
	"sync"
	"time"
)

// ingestPeriod is the writer's schedule: one 256-tuple batch every 200 ms,
// 1 280 tuples/s, whatever the server does (open loop).
const ingestPeriod = 200 * time.Millisecond

// ingestSample is one /ingest as the writer saw it. Latency runs from the
// time the request was due, not from when it was sent, so a stall charges
// the requests queued behind it; late is how far behind schedule the send
// itself was.
type ingestSample struct {
	latency time.Duration
	late    time.Duration
	version uint64
	applied int
	// layers is the overlay depth read from /stats right after the reply
	// (traced runs only; -1 otherwise).
	layers int
	err    error
}

// ingestReply is the POST /ingest reply.
type ingestReply struct {
	Version uint64 `json:"version"`
	Applied int    `json:"applied"`
	Tuples  int64  `json:"tuples"`
}

// writer is the open-loop /ingest client on its own connection.
type writer struct {
	c      *client
	stream *ingestStream
	// sampleLayers makes the writer read /stats after each reply, on its
	// own otherwise idle connection, so overlay depth is sampled without a
	// third connection.
	sampleLayers bool

	mu      sync.Mutex
	samples []ingestSample
	acked   int64 // tuples acknowledged over the writer's whole life
}

func newWriter(addr string, seed int64) *writer {
	return &writer{c: newClient(addr), stream: newIngestStream(seed)}
}

// run sends one batch per period until stop closes. A request that
// overruns its period delays the next, which is then sent at once and timed
// from its due time.
func (w *writer) run(ctx context.Context, stop <-chan struct{}) {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * ingestPeriod)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		body, _ := w.stream.Next()
		s := ingestSample{late: time.Since(due), layers: -1}
		var rep ingestReply
		s.err = w.c.postJSON(ctx, "/ingest", body, &rep)
		s.latency = time.Since(due)
		s.version, s.applied = rep.Version, rep.Applied
		if s.err == nil && w.sampleLayers {
			var st statsReply
			if err := w.c.getJSON(ctx, "/stats", &st); err == nil && st.Mvcc != nil {
				s.layers = st.Mvcc.Layers
			}
		}
		w.mu.Lock()
		w.samples = append(w.samples, s)
		if s.err == nil {
			w.acked += int64(rep.Applied)
		}
		w.mu.Unlock()
	}
}

// take returns the samples since the last take.
func (w *writer) take() []ingestSample {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.samples
	w.samples = nil
	return out
}

func (w *writer) ackedTuples() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.acked
}
