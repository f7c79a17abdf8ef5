package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
)

// The prepare/execute surface: POST /prepare registers a batch's plan in the
// database's prepared-plan registry and returns a stable handle (the
// canonical batch fingerprint); /query and /query/stream then execute the
// handle without paying parse or plan construction. DELETE /prepare/<handle>
// drops the registration. The registry counts each tenant's plans (X-Tenant
// header) and refuses a new one past Options.MaxPreparedPerTenant, which
// bounds how many plans one client can pin at once.

// defaultTenant is charged when a client sends no X-Tenant header: every
// anonymous prepare shares one count rather than escaping it.
const defaultTenant = "default"

// defaultPreparedPerTenant is the cap a zero Options.MaxPreparedPerTenant
// selects.
const defaultPreparedPerTenant = 32

// tenantOf extracts the tenant a registration counts against.
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return defaultTenant
}

// PrepareRequest is the POST /prepare body.
type PrepareRequest struct {
	// Statements is a ';'-separated batch in the textual query language.
	Statements string `json:"statements"`
}

// PrepareResponse is the POST /prepare reply.
type PrepareResponse struct {
	// Handle identifies the prepared plan; pass it as "handle" to /query or
	// /query/stream. Equivalent batches (any query order, any labels) map to
	// the same handle.
	Handle string `json:"handle"`
	// Queries is the number of queries in the batch.
	Queries int `json:"queries"`
	// Distinct is the plan's distinct coefficient count (the exact budget).
	Distinct int `json:"distinct"`
	// Cached reports whether the plan was already resident.
	Cached bool `json:"cached"`
}

// prepare serves POST /prepare.
func (h *Handler) prepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if tooManyStatements(w, req.Statements) {
		return
	}
	batch, err := repro.ParseBatch(h.db.Schema(), req.Statements)
	if err != nil {
		http.Error(w, "bad query: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(batch) > maxStatements {
		http.Error(w, fmt.Sprintf("bad request: %d queries exceeds the limit of %d", len(batch), maxStatements),
			http.StatusBadRequest)
		return
	}
	// Only a new registration counts against the tenant: re-preparing a
	// resident batch is free (the registering tenant already holds it).
	prep, _, hit, err := h.registry.Prepare(batch, tenantOf(r))
	if errors.Is(err, core.ErrTenantCap) {
		w.Header().Set("Retry-After", strconv.Itoa(int(h.sched.RetryAfter().Seconds())))
		http.Error(w, "quota exceeded: tenant holds too many prepared plans (DELETE /prepare/<handle> to free)",
			http.StatusTooManyRequests)
		return
	}
	if err != nil {
		http.Error(w, "planning failed: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, PrepareResponse{
		Handle:   prep.Fingerprint,
		Queries:  len(prep.Batch),
		Distinct: prep.Plan.DistinctCoefficients(),
		Cached:   hit,
	})
}

// unprepare serves DELETE /prepare/<handle>: the plan is dropped and its
// slot returned to the registering tenant.
func (h *Handler) unprepare(w http.ResponseWriter, r *http.Request) {
	handle := strings.TrimPrefix(r.URL.Path, "/prepare/")
	if handle == "" {
		http.Error(w, "bad request: missing handle", http.StatusBadRequest)
		return
	}
	if !h.registry.Remove(handle) {
		http.Error(w, "unknown prepare handle: "+handle, http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
