package storage

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func tempFileStore(t *testing.T, cells []float64) (*FileStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "coeffs.wvfs")
	fs, err := CreateFileStore(path, cells)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.Close() })
	return fs, path
}

// TestFileStoreBatchReadAmplification is the regression test for the
// coalescing caps: the bytes physically read per batch are pinned against
// the bytes requested, so a change that reintroduces unbounded
// read-through (one giant span for strided keys) fails here.
func TestFileStoreBatchReadAmplification(t *testing.T) {
	const n = 1 << 19 // 4 MiB file
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = float64(i + 1)
	}
	fs, _ := tempFileStore(t, cells)

	// Dense-ish batch: every second cell. Gap cells are read through (one
	// wasted per key), so amplification must stay ~2x, never more than 3x.
	var keys []int
	for k := 0; k < n; k += 2 {
		keys = append(keys, k)
	}
	dst := make([]float64, len(keys))
	fs.ResetStats()
	BatchGet(fs, keys, dst)
	reads, bytesRead := fs.IOStats()
	requested := int64(len(keys) * 8)
	if bytesRead > 3*requested {
		t.Fatalf("stride-2 batch read %d bytes for %d requested (amplification %.1fx, cap 3x)",
			bytesRead, requested, float64(bytesRead)/float64(requested))
	}
	// The span cap splits the single dense run; the waste cap splits it
	// further. Either way the syscall count stays far below one per key.
	if reads <= 1 || reads > int64(len(keys))/16 {
		t.Fatalf("stride-2 batch used %d reads for %d keys", reads, len(keys))
	}
	for i, k := range keys {
		if dst[i] != cells[k] {
			t.Fatalf("key %d read %v, want %v", k, dst[i], cells[k])
		}
	}

	// Worst-case stride the gap cap still coalesces (64): per-read waste
	// must respect fileStoreMaxWasteCells, bounding each read to roughly
	// (waste cap + useful) cells — not one file-sized span.
	keys = keys[:0]
	for k := 0; k < n; k += 64 {
		keys = append(keys, k)
	}
	dst = make([]float64, len(keys))
	fs.ResetStats()
	BatchGet(fs, keys, dst)
	reads, bytesRead = fs.IOStats()
	maxPerRead := int64(fileStoreMaxWasteCells+fileStoreMaxGap+1) * 8 * 2
	if perRead := bytesRead / reads; perRead > maxPerRead {
		t.Fatalf("stride-64 batch averaged %d bytes per read, cap %d", perRead, maxPerRead)
	}
	// And the batch total is pinned: useful bytes + at most the waste cap
	// per read issued.
	if limit := int64(len(keys)*8) + reads*int64(fileStoreMaxWasteCells)*8; bytesRead > limit {
		t.Fatalf("stride-64 batch read %d bytes, pinned limit %d", bytesRead, limit)
	}

	// Span cap: a fully consecutive run longer than fileStoreMaxSpanCells
	// must split instead of building one oversized buffer/read.
	keys = keys[:0]
	for k := 0; k < fileStoreMaxSpanCells+1000; k++ {
		keys = append(keys, k)
	}
	dst = make([]float64, len(keys))
	fs.ResetStats()
	BatchGet(fs, keys, dst)
	reads, bytesRead = fs.IOStats()
	if reads < 2 {
		t.Fatalf("consecutive run over the span cap used %d reads, want a split", reads)
	}
	if bytesRead != int64(len(keys)*8) {
		t.Fatalf("consecutive run read %d bytes, want exactly %d (no waste)", bytesRead, len(keys)*8)
	}
	for i, k := range keys {
		if dst[i] != cells[k] {
			t.Fatalf("key %d read %v, want %v", k, dst[i], cells[k])
		}
	}

	// BatchGetCtx shares the same coalescing: same bytes, same splits.
	fs.ResetStats()
	if err := fs.BatchGetCtx(context.Background(), keys, dst); err != nil {
		t.Fatal(err)
	}
	ctxReads, ctxBytes := fs.IOStats()
	if ctxReads != reads || ctxBytes != bytesRead {
		t.Fatalf("BatchGetCtx I/O (%d reads, %d bytes) differs from GetBatch (%d, %d)",
			ctxReads, ctxBytes, reads, bytesRead)
	}
}

// TestFileStoreShortReadAtEOF pins the partial-serve contract: when the
// file is truncated under a live store, a batch spanning the cut serves
// every position whose bytes were read before the cut and fails exactly
// the uncovered ones per-key — the BatchError contract, not a whole-batch
// failure.
func TestFileStoreShortReadAtEOF(t *testing.T) {
	const n = 4096
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = float64(i + 1)
	}
	fs, path := tempFileStore(t, cells)

	// Cut the file mid-cell-array: cells [0,keep) remain readable.
	const keep = 1000
	if err := os.Truncate(path, int64(fileStoreHeaderSize)+keep*8); err != nil {
		t.Fatal(err)
	}

	// One coalesced run straddling the cut.
	var keys []int
	for k := keep - 20; k < keep+20; k++ {
		keys = append(keys, k)
	}
	dst := make([]float64, len(keys))
	err := fs.BatchGetCtx(context.Background(), keys, dst)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("BatchGetCtx across EOF = %v, want *BatchError", err)
	}
	failedAt := map[int]bool{}
	for _, ke := range be.Failed {
		failedAt[ke.Index] = true
		if ke.Key < keep {
			t.Fatalf("key %d was readable but reported failed", ke.Key)
		}
	}
	for i, k := range keys {
		if k < keep {
			if failedAt[i] {
				t.Fatalf("position %d (key %d) below the cut must be served", i, k)
			}
			if dst[i] != cells[k] {
				t.Fatalf("key %d read %v, want %v (short read must still serve covered cells)", k, dst[i], cells[k])
			}
		} else if !failedAt[i] {
			t.Fatalf("position %d (key %d) beyond the cut must fail", i, k)
		}
	}

	// GetCtx on a truncated cell is a per-key error too.
	if _, err := GetCtx(context.Background(), fs, keep+5); err == nil {
		t.Fatal("GetCtx beyond the cut must fail")
	} else {
		var ke *KeyError
		if !errors.As(err, &ke) || ke.Key != keep+5 {
			t.Fatalf("GetCtx error = %v, want KeyError for %d", err, keep+5)
		}
	}
}

// stepCancelCtx reports Canceled starting from its (after+1)-th Err call.
type stepCancelCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	after int
}

func (c *stepCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestFileStoreBatchCancellationMidBatch pins that cancellation between
// coalesced runs aborts the batch whole — a context error, never a
// *BatchError — both before the first run and after some runs completed.
func TestFileStoreBatchCancellationMidBatch(t *testing.T) {
	const n = 1 << 16
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = float64(i + 1)
	}
	fs, _ := tempFileStore(t, cells)

	// Widely separated keys: every key is its own coalesced run.
	var keys []int
	for k := 0; k < n; k += 1000 {
		keys = append(keys, k)
	}
	dst := make([]float64, len(keys))

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fs.BatchGetCtx(pre, keys, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch = %v, want context.Canceled", err)
	}

	// Cancel after the entry check plus two run checks: some runs have been
	// read, the loop must still abort with the context error alone.
	mid := &stepCancelCtx{Context: context.Background(), after: 3}
	err := fs.BatchGetCtx(mid, keys, dst)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancellation = %v, want context.Canceled", err)
	}
	var be *BatchError
	if errors.As(err, &be) {
		t.Fatal("cancellation must not be reported as a BatchError")
	}
}

// TestFileStoreReopenAfterTruncation pins corruption detection at open: a
// file whose size disagrees with its header cell count is rejected, for
// truncation, growth, and a header cut.
func TestFileStoreReopenAfterTruncation(t *testing.T) {
	cells := make([]float64, 512)
	for i := range cells {
		cells[i] = rand.New(rand.NewSource(1)).NormFloat64()
	}
	fs, path := tempFileStore(t, cells)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		size int64
	}{
		{"cell truncated", st.Size() - 8},
		{"partial cell", st.Size() - 3},
		{"grown", st.Size() + 8},
		{"header cut", int64(fileStoreHeaderSize) - 2},
	} {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, tc.size); err != nil {
			// Growth needs a write, not truncate-up on all platforms.
			t.Fatal(err)
		}
		if s, err := OpenFileStore(path); err == nil {
			_ = s.Close()
			t.Fatalf("%s: OpenFileStore accepted a corrupt file", tc.name)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Restored file opens fine again.
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("restored file rejected: %v", err)
	}
	if got := Get(s, 3); got != cells[3] {
		t.Fatalf("restored Get(3) = %v, want %v", got, cells[3])
	}
	_ = s.Close()
}
