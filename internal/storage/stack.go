package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Stack declares the layers a base store is served through. It is the one
// place the order of those layers is written down: whoever owns a base store
// sets the fields it wants, in any order, and Build composes them.
type Stack struct {
	// Fault, when non-nil, injects its deterministic fault schedule.
	Fault *FaultConfig
	// Retry, when non-nil, re-attempts failed retrievals under its policy.
	Retry *RetryConfig
	// Coalesce shares overlapping in-flight fetches between concurrent
	// callers.
	Coalesce bool
}

// Counters is what a store stack counts. It is a type of its own so that
// the owner of a stack can keep one across rebuilds (Build): the layers come
// and go, the counts only grow — nothing zeroes them.
//
// The retrieval count is the paper's I/O cost of the whole stack, and this
// is its one owner: the instrument layer adds every key asked of the layers
// beneath it, so a coalesced fetch counts once however many runs share it
// and a retried key once per call, whatever its attempts. The coalescing
// counts sort every key the layer is asked into led or joined; a batch is
// counted when it has sorted its keys into the two, so Requests = Fetched +
// Coalesced in every CoalesceStats, whatever is in flight.
type Counters struct {
	retrievals atomic.Int64 // keys asked of the layers under the instrument layer
	fetched    atomic.Int64 // coefficients the coalescing layer asked of its inner store
	coalesced  atomic.Int64 // coefficients that joined another fetch
}

// Retrievals returns the keys asked of the stack below its coalescing layer.
func (c *Counters) Retrievals() int64 { return c.retrievals.Load() }

// Coalesce returns the coalescing counters.
func (c *Counters) Coalesce() CoalesceStats {
	fetched, coalesced := c.fetched.Load(), c.coalesced.Load()
	return CoalesceStats{Requests: fetched + coalesced, Fetched: fetched, Coalesced: coalesced}
}

// Build composes base → fault → retry → instrument → coalesce, leaving out
// the fault, retry and coalescing layers the stack does not ask for, and
// returns the top of the chain: where every retrieval enters. The instrument
// layer is always there: it counts into counts, which an owner that
// rebuilds passes to every Build so that what it reports never runs
// backwards; nil gives the chain counters of its own. The owner writes to
// and enumerates the base itself.
//
// The order is fixed by what each layer is for. Faults go under retries,
// which exist to recover them; the instrument layer goes over both, so it
// counts and times the whole physical retrieval; coalescing goes on top, so
// a fetch recovered by a retry is shared like any other, and the count sees
// a shared fetch once.
//
// Every call makes new layers: the state a layer keeps (Nth-call fault
// schedules, jitter draws) starts over, and a run that captured an earlier
// chain keeps it.
func (s Stack) Build(base Store, counts *Counters) Store {
	if counts == nil {
		counts = new(Counters)
	}
	top := base
	if s.Fault != nil {
		top = NewFaultStore(top, *s.Fault)
	}
	if s.Retry != nil {
		top = NewRetryStore(top, *s.Retry)
	}
	top = NewInstrumentedStore(top, counts)
	if s.Coalesce {
		top = newCoalescingStore(top, counts)
	}
	return top
}

// Describe prints the chain under top from the base up, one name per layer:
// "array → instrument". It reads the layers that are there, not a
// declaration of them. A base store of another package names itself with a
// StackName method; anything else prints as its Go type.
func Describe(top Store) string {
	var names []string
	for s := top; s != nil; {
		var name string
		switch l := s.(type) {
		case *CoalescingStore:
			name, s = "coalesce", l.inner
		case *InstrumentedStore:
			name, s = "instrument", l.inner
		case *RetryStore:
			name, s = "retry", l.inner
		case *FaultStore:
			name, s = "fault", l.inner
		case *ArrayStore:
			name, s = "array", nil
		case *SparseStore:
			name, s = "sparse", nil
		case interface{ StackName() string }:
			name, s = l.StackName(), nil
		default:
			name, s = fmt.Sprintf("%T", l), nil
		}
		names = append(names, name)
	}
	slices.Reverse(names)
	return strings.Join(names, " → ")
}
