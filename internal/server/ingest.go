package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro"
)

// POST /ingest: the live-update write path. The body is either a JSON batch
// of tuple-frequency deltas or raw CSV rows (Content-Type: text/csv,
// quantized under the database's recorded windows); either way the tuples
// land as batched Apply calls and the response carries the published
// version, immediately queryable with /query?version=N. Only an MVCC
// database (wvqd -mvcc) takes writes; every other view refuses a well-formed
// body with 403 and the ErrReadOnly text, which names the way to write.

// Ingest guardrails: one request is one published version (JSON) or a
// bounded stream of versions (CSV), not an unbounded upload.
const (
	maxIngestBytes  = 32 << 20
	maxIngestTuples = 1 << 20
	csvBatchSize    = 4096
)

// IngestTuple is one tuple-frequency delta of a JSON ingest body.
type IngestTuple struct {
	// Coords is the tuple's bin coordinate per schema attribute.
	Coords []int `json:"coords"`
	// Weight is the frequency delta: omitted or 0 means +1 (insert), -1
	// deletes one occurrence, bulk and fractional weights are legal.
	Weight float64 `json:"weight,omitempty"`
}

// IngestRequest is the POST /ingest JSON body.
type IngestRequest struct {
	Tuples []IngestTuple `json:"tuples"`
}

// IngestResponse is the POST /ingest reply.
type IngestResponse struct {
	// Version is the last version published by this request; query it
	// explicitly with /query?version=N while it stays retained.
	Version uint64 `json:"version"`
	// Applied counts tuple operations applied; Skipped counts CSV rows
	// dropped as unparsable.
	Applied int `json:"applied"`
	Skipped int `json:"skipped,omitempty"`
	// Tuples is the database's tuple count after the request.
	Tuples int64 `json:"tuples"`
}

func (h *Handler) ingest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
		rows, skipped, v, err := h.db.IngestCSV(r.Context(), body, csvBatchSize)
		if refusedReadOnly(w, err) {
			return
		}
		if err != nil {
			// Batches already applied stay applied; report how far we got.
			http.Error(w, fmt.Sprintf("ingest failed after %d tuples: %v", rows, err), http.StatusBadRequest)
			return
		}
		h.ingestedTuples.Add(int64(rows))
		writeJSON(w, http.StatusOK, IngestResponse{
			Version: uint64(v), Applied: rows, Skipped: skipped, Tuples: h.db.TupleCount(),
		})
		return
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Tuples) == 0 {
		http.Error(w, "bad request: no tuples", http.StatusBadRequest)
		return
	}
	if len(req.Tuples) > maxIngestTuples {
		http.Error(w, fmt.Sprintf("bad request: batch exceeds %d tuples", maxIngestTuples), http.StatusBadRequest)
		return
	}
	batch := repro.NewWriteBatch()
	for _, t := range req.Tuples {
		weight := t.Weight
		if weight == 0 {
			weight = 1
		}
		batch.Add(t.Coords, weight)
	}
	v, err := h.db.Apply(r.Context(), batch)
	if refusedReadOnly(w, err) {
		return
	}
	if err != nil {
		// Validation errors (wrong arity, out-of-range coordinates) are the
		// client's; nothing was applied.
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	h.ingestedTuples.Add(int64(batch.Len()))
	writeJSON(w, http.StatusOK, IngestResponse{
		Version: uint64(v), Applied: batch.Len(), Tuples: h.db.TupleCount(),
	})
}

// refusedReadOnly answers 403 with the ErrReadOnly text, which names the way
// to write, when err is a view's refusal of every write.
func refusedReadOnly(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, repro.ErrReadOnly) {
		return false
	}
	http.Error(w, "read-only view: "+err.Error(), http.StatusForbidden)
	return true
}
