package repro

import (
	"fmt"

	"repro/internal/core"
)

// This file is the facade of the prepared-plan tier: a bounded, LRU-evicting
// registry of built plans keyed by canonical batch fingerprint, so plan
// construction is paid once per distinct batch instead of once per request
// (the parse → prepare → execute split of classical database engines). See
// internal/core/registry.go for the mechanics and DESIGN.md §13 for the
// lifecycle.

// Re-exported prepared-plan vocabulary.
type (
	// PlanRegistry is the bounded prepared-plan cache.
	PlanRegistry = core.PlanRegistry
	// PlanRegistryStats is a snapshot of registry counters.
	PlanRegistryStats = core.RegistryStats
)

// ErrShapeMismatch reports that a batch cannot be template-bound against a
// plan with a different sparsity shape (Plan.Bind).
var ErrShapeMismatch = core.ErrShapeMismatch

// DefaultPlanCacheCapacity is the registry bound used when
// EnablePreparedPlans is given a non-positive capacity.
const DefaultPlanCacheCapacity = core.DefaultRegistryCapacity

// EnablePreparedPlans attaches a prepared-plan registry of the given
// capacity (≤0 selects DefaultPlanCacheCapacity) to the database and returns
// it. Idempotent: later calls return the existing registry unchanged, so the
// first caller fixes the capacity. Prepared plans are built with an eagerly
// warmed SSE schedule — the penalty the HTTP server executes under — so a
// handle's first execute pays neither plan construction nor schedule sort.
func (db *Database) EnablePreparedPlans(capacity int) *PlanRegistry {
	db.preparedMu.Lock()
	defer db.preparedMu.Unlock()
	if db.prepared == nil {
		db.prepared = core.NewPlanRegistry(db.filter, capacity)
		db.prepared.WarmSchedules(SSE())
	}
	return db.prepared
}

// PreparedPlans returns the database's registry, if one has been enabled.
func (db *Database) PreparedPlans() (*PlanRegistry, bool) {
	db.preparedMu.Lock()
	defer db.preparedMu.Unlock()
	return db.prepared, db.prepared != nil
}

// PreparedPlan is a prepared statement for one batch: the resident plan
// plus the permutation from the caller's query order into the canonical
// plan's result slots.
type PreparedPlan struct {
	prep *core.Prepared
	perm []int32
}

// Prepare registers (or finds) the batch's plan in the database's registry,
// enabling the registry at default capacity on first use. cached reports
// whether the plan was already resident. Equivalent batches — permuted,
// relabeled, or duplicated-query presentations of the same query multiset —
// share one resident plan; the returned PreparedPlan carries the caller's
// ordering.
func (db *Database) Prepare(batch Batch) (pp *PreparedPlan, cached bool, err error) {
	for _, q := range batch {
		if !q.Schema.Equal(db.schema) {
			return nil, false, fmt.Errorf("repro: query schema does not match database schema")
		}
	}
	reg := db.EnablePreparedPlans(0)
	prep, perm, hit, err := reg.Prepare(batch, "")
	if err != nil {
		return nil, false, err
	}
	return &PreparedPlan{prep: prep, perm: perm}, hit, nil
}

// Plan returns the resident canonical plan. Result slot CanonicalIndex(i)
// answers the i-th query of the batch handed to Prepare.
func (pp *PreparedPlan) Plan() *Plan { return pp.prep.Plan }

// Batch returns the canonical-order batch the plan answers.
func (pp *PreparedPlan) Batch() Batch { return pp.prep.Batch }

// Handle returns the stable prepare handle (the canonical batch
// fingerprint) accepted by PlanRegistry.Lookup and the HTTP /query surface.
func (pp *PreparedPlan) Handle() string { return pp.prep.Fingerprint }

// CanonicalIndex maps the caller's query position i to the plan's result
// slot.
func (pp *PreparedPlan) CanonicalIndex(i int) int { return int(pp.perm[i]) }

// Reorder maps a canonical-order result vector (as produced by runs and
// Exact on the prepared plan) back into the caller's query order.
func (pp *PreparedPlan) Reorder(canonical []float64) []float64 {
	out := make([]float64, len(pp.perm))
	for i := range pp.perm {
		out[i] = canonical[pp.perm[i]]
	}
	return out
}

// Prepare registers the batch in the underlying database's shared registry
// (sessions share prepared plans — they are immutable — while keeping their
// private retrieval cache for execution).
func (s *Session) Prepare(batch Batch) (*PreparedPlan, bool, error) {
	return s.db.Prepare(batch)
}
