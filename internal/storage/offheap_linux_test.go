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

// unmapLog records what munmap answered for each address unmapSlice
// released while it listens.
type unmapLog struct {
	mu  sync.Mutex
	got map[uintptr]error
}

// listenForUnmaps installs an unmapLog until the test ends. Install it
// before dropping a store: its finalizer may run at any later collection.
func listenForUnmaps(t *testing.T) *unmapLog {
	l := &unmapLog{got: make(map[uintptr]error)}
	hook := func(addr uintptr, err error) {
		l.mu.Lock()
		l.got[addr] = err
		l.mu.Unlock()
	}
	unmapHook.Store(&hook)
	t.Cleanup(func() { unmapHook.Store(nil) })
	return l
}

// afterGC collects until every addr has been released and returns what
// munmap answered for each (absent: not released within 5 s). A finalizer
// runs on its own goroutine after the cycle that finds its object
// unreachable. It asks unmapSlice, not /proc/self/maps: a range munmap
// released may already hold a later mapping.
func (l *unmapLog) afterGC(addrs []uintptr) map[uintptr]error {
	out := make(map[uintptr]error)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && len(out) < len(addrs); {
		runtime.GC()
		time.Sleep(time.Millisecond)
		l.mu.Lock()
		for _, addr := range addrs {
			if err, ok := l.got[addr]; ok {
				out[addr] = err
			}
		}
		l.mu.Unlock()
	}
	return out
}

// everyThird is the walk of a store holding key k as k+1 for every third
// key below cells.
func everyThird(cells int) func(fn func(int, float64) bool) error {
	return func(fn func(int, float64) bool) error {
		for k := 0; k < cells; k += 3 {
			if !fn(k, float64(k+1)) {
				break
			}
		}
		return nil
	}
}

// build is Build of everyThird(cells): into the array of the cells, or into
// a sparse store of a domain it does not know.
func build(t *testing.T, cells int, sparse bool) MemoryStore {
	t.Helper()
	domain, count := cells, cells
	if sparse {
		domain, count = 0, cells/3+1
	}
	s, err := Build(domain, count, everyThird(cells))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDroppedStoreUnmapsItsMemory: the array Build allocates and a sparse
// store's keys and values are mappings, and each goes once the store that
// owns it is unreachable: its finalizer hands each to munmap, which
// succeeds (munmap refuses anything but a whole region mmap returned, so
// a heap slice would fail it).
func TestDroppedStoreUnmapsItsMemory(t *testing.T) {
	const cells = 1 << 16
	unmaps := listenForUnmaps(t)
	for _, c := range []struct {
		name string
		make func() (MemoryStore, []uintptr)
	}{
		{"array", func() (MemoryStore, []uintptr) {
			s := build(t, cells, false).(*ArrayStore)
			return s, []uintptr{uintptr(unsafe.Pointer(&s.cells[0]))}
		}},
		{"sparse", func() (MemoryStore, []uintptr) {
			s := build(t, cells, true).(*SparseStore)
			return s, []uintptr{uintptr(unsafe.Pointer(&s.m.keys[0])), uintptr(unsafe.Pointer(&s.m.vals[0]))}
		}},
	} {
		s, addrs := c.make()
		for _, addr := range addrs {
			if !mapped(t, addr) {
				t.Fatalf("%s: %#x is not mapped while the store is live", c.name, addr)
			}
		}
		if Get(s, 6) != 7 {
			t.Fatalf("%s: lost a value", c.name)
		}
		s = nil
		got := unmaps.afterGC(addrs)
		for _, addr := range addrs {
			err, released := got[addr]
			if !released {
				t.Fatalf("%s: %#x was not unmapped within 5 s of the store being dropped", c.name, addr)
			}
			if err != nil {
				t.Fatalf("%s: munmap of %#x: %v", c.name, addr, err)
			}
		}
	}
}

// TestMappedStoreOutlivesItsReaders: eight readers drain a store — four by
// batched retrieval, four by enumeration — while another goroutine collects
// without pause and the test drops its own reference as soon as they start.
// A reader's last call then holds the only reference; were the store
// finalized under that call's loop, the loop would read unmapped memory and
// the process would die of SIGSEGV. A range over the array loads the slice
// once, so without its KeepAlive ArrayStore.Walk is that loop; the sparse
// store's Walk and lookups index its mapped keys and values the same way.
// Run with -count=10. A -race build keeps the stores on the heap
// (offheap_other.go), so this file is not built there.
func TestMappedStoreOutlivesItsReaders(t *testing.T) {
	const cells = 1 << 16
	for _, c := range []struct {
		name string
		make func() MemoryStore
	}{
		{"array", func() MemoryStore { return build(t, cells, false) }},
		{"sparse", func() MemoryStore { return build(t, cells, true) }},
	} {
		s := c.make()
		want := 0.0
		for k := 0; k < cells; k += 3 {
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

// TestStoreMappingsAskForHugePages: Build's array and a sparse store's keys
// and values carry the MADV_HUGEPAGE advice. The flag records the advice,
// not whether the kernel found free huge pages, so it does not depend on the
// host's memory.
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
	array := build(t, cells, false).(*ArrayStore)
	advised("array", uintptr(unsafe.Pointer(&array.cells[0])))
	runtime.KeepAlive(array)

	s := build(t, 1<<20, true).(*SparseStore) // ≥ 2 MiB each of keys and values
	advised("sparse keys", uintptr(unsafe.Pointer(&s.m.keys[0])))
	advised("sparse values", uintptr(unsafe.Pointer(&s.m.vals[0])))
	runtime.KeepAlive(s)
}
