//go:build linux && !race

package storage

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// mapped reports whether addr lies in any mapping of this process.
func mapped(t *testing.T, addr uintptr) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var lo, hi uintptr
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x", &lo, &hi); err != nil {
			t.Fatalf("parsing %q: %v", sc.Text(), err)
		}
		if lo <= addr && addr < hi {
			return true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return false
}

// unmappedAfterGC collects until addr is no longer mapped: a finalizer runs
// on its own goroutine after the cycle that finds its object unreachable.
func unmappedAfterGC(t *testing.T, addr uintptr) bool {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if !mapped(t, addr) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestDroppedStoreUnmapsItsMemory: the array NewMemoryStore allocates and a
// table's slots are mappings (the Go heap never returns its address range to
// the kernel, so a range that disappears was not heap), and each goes once
// the store that owns it is unreachable.
func TestDroppedStoreUnmapsItsMemory(t *testing.T) {
	for _, c := range []struct {
		name string
		make func() (MemoryStore, uintptr)
	}{
		{"array", func() (MemoryStore, uintptr) {
			s := NewMemoryStore(1<<16, 1<<16).(*ArrayStore)
			return s, uintptr(unsafe.Pointer(&s.cells[0]))
		}},
		{"table", func() (MemoryStore, uintptr) {
			s := NewHashStoreSized(1 << 14)
			return s, uintptr(unsafe.Pointer(&s.cells.slots[0]))
		}},
	} {
		s, addr := c.make()
		s.Add(5, 1)
		if !mapped(t, addr) {
			t.Fatalf("%s: %#x is not mapped while the store is live", c.name, addr)
		}
		if Get(s, 5) != 1 {
			t.Fatalf("%s: lost a value", c.name)
		}
		s = nil
		if !unmappedAfterGC(t, addr) {
			t.Fatalf("%s: %#x is still mapped after the store was dropped", c.name, addr)
		}
	}
}

// TestTableGrowthUnmapsOldSlots: a resize releases the slots it moved out of
// at once, not at the next collection, and the entries survive the move.
func TestTableGrowthUnmapsOldSlots(t *testing.T) {
	s := NewHashStoreSized(1000)
	capacity := len(s.cells.slots)
	old := uintptr(unsafe.Pointer(&s.cells.slots[0]))
	if !mapped(t, old) {
		t.Fatalf("%d-slot table at %#x is not mapped", capacity, old)
	}
	n := 0
	for ; len(s.cells.slots) == capacity; n++ {
		s.Add(n, float64(n+1))
	}
	if mapped(t, old) {
		t.Fatalf("the table grew %d → %d slots but its old slots at %#x are still mapped", capacity, len(s.cells.slots), old)
	}
	for k := 0; k < n; k++ {
		if got := Get(s, k); got != float64(k+1) {
			t.Fatalf("key %d reads %v after the move, want %v", k, got, float64(k+1))
		}
	}
}

// TestMappedStoreOutlivesItsReaders: eight readers drain a store — four by
// batched retrieval, four by enumeration — while another goroutine collects
// without pause and the test drops its own reference as soon as they start.
// A reader's last call then holds the only reference; were the store
// finalized under that call's loop, the loop would read unmapped memory and
// the process would die of SIGSEGV. A range over the array loads the slice
// once, so without its KeepAlive ArrayStore.Walk is that loop.
// Run with -count=10. A -race build keeps the stores on the heap
// (offheap_other.go), so this file is not built there.
func TestMappedStoreOutlivesItsReaders(t *testing.T) {
	const cells = 1 << 16
	for _, c := range []struct {
		name string
		make func() MemoryStore
	}{
		{"array", func() MemoryStore { return NewMemoryStore(cells, cells) }},
		{"table", func() MemoryStore { return NewMemoryStore(0, cells/3+1) }},
	} {
		s := c.make()
		want := 0.0
		for k := 0; k < cells; k += 3 {
			s.Add(k, float64(k+1))
			want += float64(k + 1)
		}
		keys := make([]int, cells)
		for k := range keys {
			keys[k] = k
		}
		stop := make(chan struct{})
		collected := make(chan struct{})
		go func() {
			defer close(collected)
			for {
				select {
				case <-stop:
					return
				default:
					runtime.GC()
				}
			}
		}()
		// drain reads s once and checks the sum. On a reader's last drain, s
		// is that call's only reference to the store; an enumeration then
		// collects under itself and lets the finalizer goroutine run.
		drain := func(s MemoryStore, r int, last bool) bool {
			sum := 0.0
			if r%2 == 0 {
				dst := make([]float64, len(keys))
				if err := s.BatchGetCtx(context.Background(), keys, dst); err != nil {
					t.Error(err)
					return false
				}
				for _, v := range dst {
					sum += v
				}
			} else {
				s.Walk(func(k int, v float64) bool {
					sum += v
					if last && k%4096 == 0 {
						runtime.GC()
						time.Sleep(100 * time.Microsecond)
					}
					return true
				})
			}
			if sum != want {
				t.Errorf("%s reader %d: sum %v, want %v", c.name, r, sum, want)
				return false
			}
			return true
		}
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(s MemoryStore, r int) {
				defer wg.Done()
				for round := 0; round < 19; round++ {
					if !drain(s, r, false) {
						return
					}
				}
				drain(s, r, true) // the last use of s
			}(s, r)
		}
		s = nil
		wg.Wait()
		close(stop)
		<-collected
	}
}

// vmFlags returns the VmFlags of the mapping holding addr, from
// /proc/self/smaps: two-letter codes, "hg" for one advised MADV_HUGEPAGE.
func vmFlags(t *testing.T, addr uintptr) []string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil {
			in = lo <= addr && addr < hi
			continue
		}
		if flags, ok := strings.CutPrefix(line, "VmFlags:"); ok && in {
			return strings.Fields(flags)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("%#x: no mapping with VmFlags in /proc/self/smaps", addr)
	return nil
}

// TestStoreMappingsAskForHugePages: NewMemoryStore's array, a table's
// reserved slots and the slots a resize moves into all carry the
// MADV_HUGEPAGE advice. The flag records the advice, not whether the kernel
// found free huge pages, so it does not depend on the host's memory.
func TestStoreMappingsAskForHugePages(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage"); err != nil {
		t.Skipf("kernel without transparent huge pages: %v", err)
	}
	advised := func(what string, addr uintptr) {
		t.Helper()
		if flags := vmFlags(t, addr); !slices.Contains(flags, "hg") {
			t.Errorf("%s at %#x: VmFlags %v lack hg", what, addr, flags)
		}
	}

	const cells = 1 << 19 // 4 MiB of float64
	array := NewMemoryStore(cells, cells).(*ArrayStore)
	advised("array", uintptr(unsafe.Pointer(&array.cells[0])))
	runtime.KeepAlive(array)

	s := NewHashStoreSized(1 << 17) // ≥ 2 MiB of 16-byte slots
	capacity := len(s.cells.slots)
	advised("reserved slots", uintptr(unsafe.Pointer(&s.cells.slots[0])))
	for n := 0; len(s.cells.slots) == capacity; n++ {
		s.Add(n, 1)
	}
	advised("resized slots", uintptr(unsafe.Pointer(&s.cells.slots[0])))
	runtime.KeepAlive(s)
}
