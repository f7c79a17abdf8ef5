package layout

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestLoadSeesNoLaterWrite: a store loaded from a file holds a copy of its
// bytes. The file rewritten in place afterwards — same size, other values,
// so a mapping would serve the new ones — leaves every read of the loaded
// store as it was, and so does DropPages, which must not touch bytes that
// were read: advice that dropped them would zero the only copy.
func TestLoadSeesNoLaterWrite(t *testing.T) {
	const cells = 1 << 12
	keys, values := denseCoefficients(cells, 0.9, 41)
	path := writeRankLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 256})
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if s.fileMapped {
		t.Fatal("Load mapped the file")
	}
	negated := make([]float64, len(values))
	for i, v := range values {
		negated[i] = -v
	}
	var other bytes.Buffer
	if err := Encode(&other, keys, negated, WriteOptions{Cells: cells, BlockSize: 256}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, other.Bytes(), 0o644); err != nil { // in place, no rename
		t.Fatal(err)
	}
	s.DropPages()
	got := make([]float64, len(keys))
	if err := s.BatchGetCtx(context.Background(), keys, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if got[i] != v {
			t.Fatalf("key %d reads %v after the file was rewritten, loaded %v", keys[i], got[i], v)
		}
	}
}

// TestLoadedStoreOutlivesItsReaders: eight readers drain a loaded store —
// four by batched retrieval, four by walking it — while another goroutine
// collects without pause and the test drops its own reference as soon as
// they start. A reader's last call then holds the only reference; were the
// store finalized under that call's loop, the loop would read bytes Close
// had unmapped and the process would die of SIGSEGV. Both shapes: a rank
// file of dense data and a directory file of sparse data, whose batches
// resolve keys by a rank record and by a search. Run with -count=10.
func TestLoadedStoreOutlivesItsReaders(t *testing.T) {
	const cells = 1 << 16
	dense, denseValues := denseCoefficients(cells, 0.9, 42)
	sparse, sparseValues := testCoefficients(cells/8, cells, 43)
	for name, path := range map[string]string{
		"dense":  writeRankLayout(t, dense, denseValues, WriteOptions{Cells: cells}),
		"sparse": writeDirectoryLayout(t, sparse, sparseValues, WriteOptions{Cells: cells}),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		if err := s.Walk(func(_ int, v float64) bool { want += v; return true }); err != nil {
			t.Fatal(err)
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
		// is that call's only reference to the store; a walk then collects
		// under itself and lets the finalizer goroutine run.
		drain := func(s *Store, r int, last bool) bool {
			sum, walked := 0.0, 0
			if r%2 == 0 {
				dst := make([]float64, len(keys))
				if err := s.BatchGetCtx(context.Background(), keys, dst); err != nil {
					t.Error(err)
					return false
				}
				for _, v := range dst {
					sum += v
				}
			} else if err := s.Walk(func(_ int, v float64) bool {
				sum += v
				if walked++; last && walked%512 == 0 {
					runtime.GC()
					time.Sleep(100 * time.Microsecond)
				}
				return true
			}); err != nil {
				t.Error(err)
				return false
			}
			if sum != want {
				t.Errorf("%s reader %d: sum %v, want %v", name, r, sum, want)
				return false
			}
			return true
		}
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(s *Store, r int) {
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
