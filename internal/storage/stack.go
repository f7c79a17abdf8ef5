package storage

import (
	"fmt"
	"slices"
	"strings"
)

// Stack declares the layers a base store is served through. It is the one
// place the order of those layers is written down: whoever owns a base store
// sets the fields it wants, in any order, and Build composes them.
type Stack struct {
	// Fault, when non-nil, injects its deterministic fault schedule.
	Fault *FaultConfig
	// Retry, when non-nil, re-attempts failed retrievals under its policy.
	Retry *RetryConfig
	// Instrument times every retrieval batch into the observed registry.
	Instrument bool
	// Coalesce shares overlapping in-flight fetches between concurrent
	// callers.
	Coalesce bool
}

// Build composes base → fault → retry → instrument → coalesce, leaving out
// what the stack does not ask for, and returns the top of the chain: where
// every retrieval enters. The owner writes to and enumerates the base itself.
// A coalescing layer counts into counts, which an owner that rebuilds passes
// to every Build so that what it reports never runs backwards; nil gives the
// layer counters of its own.
//
// The order is fixed by what each layer is for. Faults go under retries,
// which exist to recover them; the timer goes over both, so it covers the
// whole physical retrieval; coalescing goes on top, so a fetch recovered by a
// retry is shared like any other.
//
// Every call makes new layers: the state a layer keeps (Nth-call fault
// schedules, jitter draws) starts over, and a run that captured an earlier
// chain keeps it.
func (s Stack) Build(base Store, counts *CoalesceCounters) Store {
	top := base
	if s.Fault != nil {
		top = NewFaultStore(top, *s.Fault)
	}
	if s.Retry != nil {
		top = NewRetryStore(top, *s.Retry)
	}
	if s.Instrument {
		top = NewInstrumentedStore(top)
	}
	if s.Coalesce {
		co := NewCoalescingStore(top)
		if counts != nil {
			co.counts = counts
		}
		top = co
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
