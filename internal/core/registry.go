package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/wavelet"
)

// PlanRegistry is the prepared-plan tier: a bounded, LRU-evicting cache of
// built plans keyed by canonical batch fingerprint (query.Fingerprint), so
// plan construction — the largest fixed cost on the request path after CSR
// flattening — is paid once per distinct batch instead of once per request.
// The registry holds the CSR plan and, through the plan's per-penalty
// schedule cache, its retrieval schedules; a registry hit therefore skips
// both plan construction and schedule sorting.
//
// Concurrency follows the schedule cache's mutex + sync.Once slot pattern:
// the mutex only guards map/LRU bookkeeping, while each plan is built
// outside the lock exactly once, with concurrent preparers of the same
// fingerprint blocking on the builder rather than duplicating work.
//
// Same-shape reuse: when a new batch's sparsity shape matches a resident
// plan (same per-query key sets, different coefficient values — re-weighted
// workloads), the build verifies its merge against the resident CSR skeleton
// instead of allocating a new one (buildPlan), and the registry counts a
// template bind. The result is bit-identical to a full build either way.
//
// Eviction spares what a tenant asked for: under pressure the least recently
// used *inline* registration (tenant "") goes first, so one-shot ad-hoc
// batches cannot push out the /prepare handles a tenant holds quota for;
// plain LRU applies only once no inline registration is left.
type PlanRegistry struct {
	filter   *wavelet.Filter
	capacity int

	// warm lists penalties whose schedules are built eagerly at plan build
	// time, so a prepared handle's first execute pays no schedule sort.
	warm []penalty.Penalty

	// onEvict, when set, observes every eviction and removal with the
	// evictee's fingerprint and registering tenant — the server releases
	// per-tenant quota here. Set before the registry is shared.
	onEvict func(fingerprint, tenant string)

	mu     sync.Mutex
	slots  map[string]*planSlot
	lru    *list.List       // *planSlot values; front = most recently used
	shapes map[string]*Plan // shape fingerprint → resident template plan

	hits, misses, evictions, binds atomic.Int64
}

// planSlot is one registry cell. The sync.Once lets the build run outside
// the registry mutex while happening exactly once; done publishes prep/err
// for lock-free readers (Lookup).
type planSlot struct {
	fp     string
	tenant string
	elem   *list.Element
	once   sync.Once
	done   atomic.Bool
	prep   *Prepared
	err    error
}

// Prepared is one registry entry: a built plan together with the canonical
// batch it serves and the fingerprint that keys it (the prepare handle).
type Prepared struct {
	// Plan is the built (or template-bound) CSR plan for the canonical batch.
	Plan *Plan
	// Batch is the canonical-order batch the plan answers; result slot i of
	// the plan corresponds to Batch[i]. Callers holding a differently-ordered
	// presentation of the batch map through the permutation Prepare returned.
	Batch query.Batch
	// Fingerprint is the canonical batch fingerprint — the stable handle.
	Fingerprint string
	// Tenant is the tenant that first registered the entry ("" for
	// anonymous/inline registrations); quota accounting keys on it.
	Tenant string
}

// DefaultRegistryCapacity bounds the registry when NewPlanRegistry is given
// a non-positive capacity.
const DefaultRegistryCapacity = 256

// RegistryStats is a snapshot of the registry's counters.
type RegistryStats struct {
	// Plans is the current number of resident prepared plans.
	Plans int `json:"plans"`
	// Capacity is the LRU bound.
	Capacity int `json:"capacity"`
	// Hits counts Prepare calls answered by a resident plan.
	Hits int64 `json:"hits"`
	// Misses counts Prepare calls that had to build (or bind) a plan.
	Misses int64 `json:"misses"`
	// Evictions counts plans dropped by the LRU bound (explicit removals are
	// not evictions).
	Evictions int64 `json:"evictions"`
	// TemplateBinds counts builds served by re-weighting a same-shape
	// resident plan instead of a full merge.
	TemplateBinds int64 `json:"template_binds"`
}

// NewPlanRegistry creates a registry that builds plans under the filter and
// holds at most capacity of them (≤0 selects DefaultRegistryCapacity).
func NewPlanRegistry(f *wavelet.Filter, capacity int) *PlanRegistry {
	if capacity <= 0 {
		capacity = DefaultRegistryCapacity
	}
	return &PlanRegistry{
		filter:   f,
		capacity: capacity,
		slots:    make(map[string]*planSlot),
		lru:      list.New(),
		shapes:   make(map[string]*Plan),
	}
}

// WarmSchedules makes every subsequent build also pre-build the plan's
// retrieval schedule under the given penalties, moving the schedule sort
// from the first execute to prepare time.
func (r *PlanRegistry) WarmSchedules(pens ...penalty.Penalty) { r.warm = pens }

// OnEvict installs the eviction observer (see the field doc). Must be set
// before the registry is shared across goroutines.
func (r *PlanRegistry) OnEvict(fn func(fingerprint, tenant string)) { r.onEvict = fn }

// Capacity returns the LRU bound.
func (r *PlanRegistry) Capacity() int { return r.capacity }

// Len returns the current number of resident entries.
func (r *PlanRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots)
}

// Stats returns a snapshot of the registry counters.
func (r *PlanRegistry) Stats() RegistryStats {
	r.mu.Lock()
	plans := len(r.slots)
	r.mu.Unlock()
	return RegistryStats{
		Plans:         plans,
		Capacity:      r.capacity,
		Hits:          r.hits.Load(),
		Misses:        r.misses.Load(),
		Evictions:     r.evictions.Load(),
		TemplateBinds: r.binds.Load(),
	}
}

// Prepare returns the registry's plan for the batch, building it on first
// use. It canonicalizes the batch, so permutations and relabelings of one
// batch share a single resident plan. The returned permutation maps the
// caller's query positions into the canonical plan's result slots
// (canonical slot perm[i] answers caller query i); hit reports whether the
// plan was already resident. tenant is recorded on first registration for
// quota accounting.
//
// Errors are not cached: a failed build releases the fingerprint so a later
// (possibly corrected) batch can retry.
func (r *PlanRegistry) Prepare(batch query.Batch, tenant string) (prep *Prepared, perm []int32, hit bool, err error) {
	canonical, perm := batch.Canonical()
	fp := query.CanonicalFingerprint(canonical)

	r.mu.Lock()
	slot, ok := r.slots[fp]
	if ok {
		r.lru.MoveToFront(slot.elem)
	} else {
		slot = &planSlot{fp: fp, tenant: tenant}
		slot.elem = r.lru.PushFront(slot)
		r.slots[fp] = slot
	}
	evicted := r.evictLocked()
	r.mu.Unlock()
	r.fireEvictions(evicted)

	if ok {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}

	slot.once.Do(func() {
		slot.prep, slot.err = r.build(slot, canonical, fp, tenant)
		slot.done.Store(true)
	})
	if slot.err != nil {
		r.dropFailed(fp, slot)
		return nil, nil, false, slot.err
	}
	return slot.prep, perm, ok, nil
}

// Lookup resolves a prepare handle (the canonical fingerprint) to its
// resident plan, refreshing its LRU recency. It does not block on in-flight
// builds: a handle is only visible once its build completed, which holds for
// any handle obtained from a successful Prepare.
func (r *PlanRegistry) Lookup(handle string) (*Prepared, bool) {
	r.mu.Lock()
	slot, ok := r.slots[handle]
	if ok {
		r.lru.MoveToFront(slot.elem)
	}
	r.mu.Unlock()
	if !ok || !slot.done.Load() || slot.err != nil {
		return nil, false
	}
	return slot.prep, true
}

// Remove drops a prepared plan by handle, reporting whether it was resident.
// The eviction observer fires (quota is released) but the eviction counter
// does not move — removal is a client action, not cache pressure.
func (r *PlanRegistry) Remove(handle string) bool {
	r.mu.Lock()
	slot, ok := r.slots[handle]
	if ok {
		r.removeSlotLocked(slot)
	}
	r.mu.Unlock()
	if ok && r.onEvict != nil {
		r.onEvict(slot.fp, slot.tenant)
	}
	return ok
}

// build constructs the plan for a canonical batch through newWaveletPlan —
// the exact construction the ad-hoc path uses, so prepared and ad-hoc results
// are bit-identical by construction — offering it the resident templates.
func (r *PlanRegistry) build(slot *planSlot, canonical query.Batch, fp, tenant string) (*Prepared, error) {
	plan, bound, err := newWaveletPlan(canonical, r.filter, 0, r.template)
	if err != nil {
		return nil, err
	}
	if bound {
		r.binds.Add(1)
	}
	for _, pen := range r.warm {
		plan.warmSchedule(pen)
	}

	// Register the plan as a bind template for its shape, unless the slot
	// was evicted while we were building (registering then would leak the
	// template past its eviction) or another resident plan owns the shape.
	r.mu.Lock()
	if cur, live := r.slots[fp]; live && cur == slot {
		if _, taken := r.shapes[plan.shape]; !taken {
			r.shapes[plan.shape] = plan
		}
	}
	r.mu.Unlock()

	return &Prepared{
		Plan:        plan,
		Batch:       canonical,
		Fingerprint: fp,
		Tenant:      tenant,
	}, nil
}

// template returns the resident bind template for a shape fingerprint, or nil.
func (r *PlanRegistry) template(shape string) *Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shapes[shape]
}

// evictLocked enforces the capacity bound, returning the evicted slots for
// observer dispatch outside the lock. The victim is the least recently used
// inline registration, or the least recently used slot when none is inline.
func (r *PlanRegistry) evictLocked() []*planSlot {
	var evicted []*planSlot
	for len(r.slots) > r.capacity {
		victim := r.lru.Back()
		if victim == nil {
			break
		}
		for e := victim; e != nil; e = e.Prev() {
			if e.Value.(*planSlot).tenant == "" {
				victim = e
				break
			}
		}
		slot := victim.Value.(*planSlot)
		r.removeSlotLocked(slot)
		r.evictions.Add(1)
		evicted = append(evicted, slot)
	}
	return evicted
}

// removeSlotLocked unlinks a slot from the map, the LRU list, and — when the
// slot's plan is the resident template for its shape — the shape index.
func (r *PlanRegistry) removeSlotLocked(slot *planSlot) {
	delete(r.slots, slot.fp)
	r.lru.Remove(slot.elem)
	if slot.done.Load() && slot.prep != nil {
		if plan := slot.prep.Plan; r.shapes[plan.shape] == plan {
			delete(r.shapes, plan.shape)
		}
	}
}

// dropFailed releases a fingerprint whose build errored, so the failure is
// not cached. No eviction observer fires: a failed build never registered
// anything.
func (r *PlanRegistry) dropFailed(fp string, slot *planSlot) {
	r.mu.Lock()
	if cur, ok := r.slots[fp]; ok && cur == slot {
		r.removeSlotLocked(slot)
	}
	r.mu.Unlock()
}

func (r *PlanRegistry) fireEvictions(evicted []*planSlot) {
	if r.onEvict == nil {
		return
	}
	for _, slot := range evicted {
		r.onEvict(slot.fp, slot.tenant)
	}
}
