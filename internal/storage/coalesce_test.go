package storage

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gateStore is a concurrent-safe store whose retrievals block on a gate
// channel, letting tests hold fetches in flight deterministically.
type gateStore struct {
	inner *HashStore
	gate  chan struct{} // each fetch call consumes one token
}

func newGateStore(cells map[int]float64) *gateStore {
	s := NewHashStore()
	for k, v := range cells {
		s.Add(k, v)
	}
	return &gateStore{inner: s, gate: make(chan struct{}, 1024)}
}

func (g *gateStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	<-g.gate
	return g.inner.BatchGetCtx(ctx, keys, dst)
}

func (g *gateStore) Retrievals() int64 { return g.inner.Retrievals() }
func (g *gateStore) ResetStats()       { g.inner.ResetStats() }
func (g *gateStore) NonzeroCount() int { return g.inner.NonzeroCount() }

// open lets n fetch calls proceed.
func (g *gateStore) open(n int) {
	for i := 0; i < n; i++ {
		g.gate <- struct{}{}
	}
}

func TestCoalescingGetJoinsInflightFetch(t *testing.T) {
	// The leader registering its flight is observable (cs.inflight), but the
	// joiner joining it is not — only the final counters reveal which
	// schedule ran. So: give the joiner a grace period to classify, detect
	// the miss (it becomes a second leader and waits for a second token) and
	// retry on a fresh store until the join schedule occurs.
	for attempt := 0; attempt < 50; attempt++ {
		gs := newGateStore(map[int]float64{7: 42})
		cs := NewCoalescingStore(gs)

		results := make(chan float64, 2)
		go func() { results <- Get(cs, 7) }() // leader: blocks on the gate
		for {                                 // leader's flight registered (gate shut: it cannot deregister)
			cs.mu.Lock()
			_, inflight := cs.inflight[7]
			cs.mu.Unlock()
			if inflight {
				break
			}
			runtime.Gosched()
		}
		go func() { results <- Get(cs, 7) }() // joiner: should share the flight
		time.Sleep(time.Millisecond)          // grace period to classify
		gs.open(1)                            // one physical fetch on the join schedule
		a := <-results
		var b float64
		select {
		case b = <-results:
		case <-time.After(200 * time.Millisecond):
			// Bad schedule: the joiner classified after the leader finished
			// and now leads its own fetch. Feed it a token and retry.
			gs.open(1)
			b = <-results
		}
		if a != 42 || b != 42 {
			t.Fatalf("results = %g, %g, want 42, 42", a, b)
		}
		st := cs.Stats()
		if st.Requests != 2 || st.Fetched+st.Coalesced != 2 {
			t.Fatalf("stats do not balance: %+v", st)
		}
		if st.Coalesced == 1 {
			if st.Fetched != 1 || gs.Retrievals() != 1 {
				t.Fatalf("join schedule stats = %+v, physical = %d", st, gs.Retrievals())
			}
			return
		}
	}
	t.Fatal("join schedule never occurred in 50 attempts")
}

func TestCoalescingBatchOverlap(t *testing.T) {
	cells := map[int]float64{1: 10, 2: 20, 3: 30, 4: 40}
	gs := newGateStore(cells)
	cs := NewCoalescingStore(gs)

	type res struct{ vals []float64 }
	out := make(chan res, 2)
	go func() { // leader batch holds {1,2,3} in flight
		dst := make([]float64, 3)
		BatchGet(cs, []int{1, 2, 3}, dst)
		out <- res{dst}
	}()
	for {
		cs.mu.Lock()
		n := len(cs.inflight)
		cs.mu.Unlock()
		if n == 3 {
			break
		}
		runtime.Gosched()
	}
	go func() { // overlapping batch: 2 and 3 join, 4 leads
		dst := make([]float64, 3)
		BatchGet(cs, []int{2, 3, 4}, dst)
		out <- res{dst}
	}()
	for { // wait until the second batch has classified (registered key 4);
		// registering 4 and joining 2,3 happen in one critical section, so
		// this also proves the joins are in place before the gate opens
		cs.mu.Lock()
		_, ok := cs.inflight[4]
		cs.mu.Unlock()
		if ok {
			break
		}
		runtime.Gosched()
	}
	gs.open(2) // one coalesced fetch per batch's lead set
	got := map[float64]bool{}
	for i := 0; i < 2; i++ {
		r := <-out
		for _, v := range r.vals {
			got[v] = true
		}
	}
	for _, want := range []float64{10, 20, 30, 40} {
		if !got[want] {
			t.Fatalf("value %g missing from batch results", want)
		}
	}
	st := cs.Stats()
	if st.Requests != 6 || st.Fetched != 4 || st.Coalesced != 2 {
		t.Fatalf("stats = %+v, want {6 4 2}", st)
	}
	if gs.Retrievals() != 4 {
		t.Fatalf("physical retrievals = %d, want 4", gs.Retrievals())
	}
}

func TestCoalescingBatchIntraBatchDuplicates(t *testing.T) {
	s := NewHashStore()
	s.Add(5, 50)
	cs := NewCoalescingStore(s)
	dst := make([]float64, 3)
	BatchGet(cs, []int{5, 5, 5}, dst)
	for i, v := range dst {
		if v != 50 {
			t.Fatalf("dst[%d] = %g, want 50", i, v)
		}
	}
	st := cs.Stats()
	if st.Requests != 3 || st.Fetched != 1 || st.Coalesced != 2 {
		t.Fatalf("stats = %+v, want {3 1 2}", st)
	}
}

func TestCoalescingValuesMatchUnwrapped(t *testing.T) {
	s := NewHashStore()
	for k := 0; k < 256; k += 3 {
		s.Add(k, float64(k)*1.5)
	}
	cs := NewCoalescingStore(s)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, 64)
			keys := make([]int, 64)
			for round := 0; round < 20; round++ {
				for i := range keys {
					keys[i] = (w + round + i*4) % 256
				}
				BatchGet(cs, keys, dst)
				for i, k := range keys {
					want := 0.0
					if k%3 == 0 {
						want = float64(k) * 1.5
					}
					if dst[i] != want {
						t.Errorf("key %d = %g, want %g", k, dst[i], want)
						return
					}
				}
				if v := Get(cs, (w*round)%256); v != 0 && v != float64((w*round)%256)*1.5 {
					t.Errorf("Get(%d) = %g", (w*round)%256, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := cs.Stats()
	if st.Requests != st.Fetched+st.Coalesced {
		t.Fatalf("stats do not balance: %+v", st)
	}
}

func TestCoalescingPassthroughs(t *testing.T) {
	s := NewHashStore()
	s.Add(1, 2)
	cs := NewCoalescingStore(s)
	s.Add(3, 4)
	if cs.NonzeroCount() != 2 {
		t.Fatalf("NonzeroCount = %d", cs.NonzeroCount())
	}
	Get(cs, 1)
	if cs.Retrievals() != 1 {
		t.Fatalf("Retrievals = %d", cs.Retrievals())
	}
	cs.ResetStats()
	if cs.Retrievals() != 0 || cs.Stats() != (CoalesceStats{}) {
		t.Fatal("ResetStats did not clear counters")
	}
}
