package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// FileStore keeps the dense coefficient array on disk and serves retrievals
// with positioned reads — a literal realization of the paper's cost model,
// where each coefficient retrieval is one storage access. The on-disk layout
// is a fixed header followed by n little-endian float64 cells.
//
// FileStore implements Store, Updatable and Enumerable. Like the in-memory
// stores it is not safe for concurrent use.
type FileStore struct {
	f          *os.File
	n          int
	retrievals int64
	// Physical I/O accounting for the coalescing batch path: syscalls
	// issued and bytes actually read (including gap bytes read through).
	// The ratio bytesRead / (8·retrievals) is the read amplification the
	// coalescing caps bound.
	reads     int64
	bytesRead int64
}

const (
	fileStoreMagic      = "WVFS"
	fileStoreVersion    = 1
	fileStoreHeaderSize = 4 + 2 + 8 // magic + version + cell count
)

// CreateFileStore writes the dense coefficient array to path and opens it as
// a store. An existing file at path is truncated.
func CreateFileStore(path string, cells []float64) (*FileStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(fileStoreMagic); err != nil {
		_ = f.Close()
		return nil, err
	}
	var hdr [10]byte
	binary.LittleEndian.PutUint16(hdr[0:2], fileStoreVersion)
	binary.LittleEndian.PutUint64(hdr[2:10], uint64(len(cells)))
	if _, err := w.Write(hdr[:]); err != nil {
		_ = f.Close()
		return nil, err
	}
	var buf [8]byte
	for _, v := range cells {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := w.Write(buf[:]); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &FileStore{f: f, n: len(cells)}, nil
}

// OpenFileStore opens an existing coefficient file.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [fileStoreHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: reading file store header: %w", err)
	}
	if string(hdr[:4]) != fileStoreMagic {
		_ = f.Close()
		return nil, fmt.Errorf("storage: %s is not a coefficient file (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != fileStoreVersion {
		_ = f.Close()
		return nil, fmt.Errorf("storage: unsupported file store version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[6:14])
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if want := int64(fileStoreHeaderSize) + int64(n)*8; st.Size() != want {
		_ = f.Close()
		return nil, fmt.Errorf("storage: file size %d does not match header (want %d)", st.Size(), want)
	}
	return &FileStore{f: f, n: int(n)}, nil
}

// Coalescing policy for FileStore batch reads. A run keeps absorbing the
// next (sorted) key while all three caps hold; each cap bounds a different
// resource the old gap-only rule left unbounded:
const (
	// fileStoreMaxGap is the largest key gap (in cells) a coalesced read
	// will read through: reading 8·gap wasted bytes is cheaper than a
	// second syscall.
	fileStoreMaxGap = 64
	// fileStoreMaxWasteCells caps the CUMULATIVE gap cells read through in
	// one coalesced read (8 KiB of wasted bytes). Without it, a batch of
	// stride-64 keys chains through the gap cap forever: every gap is
	// individually acceptable, but the single read it builds is ~98% waste.
	fileStoreMaxWasteCells = 1024
	// fileStoreMaxSpanCells caps one read's total span (1 MiB): however
	// dense the keys, an oversized span is split so the read buffer stays
	// bounded and an I/O failure fails a bounded set of positions.
	fileStoreMaxSpanCells = 128 << 10
)

// coalesce returns hi such that order[lo:hi] is the longest prefix run
// satisfying the gap, waste and span caps. keys[order] is sorted ascending.
func coalesce(keys []int, order []int, lo int) int {
	hi := lo + 1
	waste := 0
	for hi < len(order) {
		gap := keys[order[hi]] - keys[order[hi-1]] - 1 // cells read but not wanted
		if gap < 0 {
			gap = 0 // duplicate key
		}
		if gap+1 > fileStoreMaxGap ||
			waste+gap > fileStoreMaxWasteCells ||
			keys[order[hi]]-keys[order[lo]]+1 > fileStoreMaxSpanCells {
			break
		}
		waste += gap
		hi++
	}
	return hi
}

// BatchGetCtx implements Store by sorting the requested keys and coalescing
// consecutive (or near-consecutive) runs into single positioned reads,
// cutting the syscall count from len(keys) to the number of runs. Reads are
// bounded: per-read waste and span caps (see coalesce) keep the bytes
// physically read within a constant factor of the bytes requested. An
// out-of-range key or a failed positioned read fails only the positions it
// covers, reported via *BatchError, while the remaining runs are still read
// — the file can disappear, the disk can fail, and the engine degrades
// instead of crashing. A SHORT read (ReadAt returned fewer bytes than the
// span, e.g. the file was truncated under us) is partial, not total:
// positions whose cells were fully read before the cut are served, only the
// uncovered tail of the run fails — honoring the BatchError contract that
// unlisted positions hold valid values. Cancellation is observed between
// runs and returned whole.
func (s *FileStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	if err := ctx.Err(); err != nil {
		return err
	}
	s.retrievals += int64(len(keys))
	var failed []KeyError
	order := make([]int, 0, len(keys))
	for i, k := range keys {
		if k < 0 || k >= s.n {
			failed = append(failed, rangeError(i, k, s.n))
			continue
		}
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var buf []byte
	for lo := 0; lo < len(order); {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := coalesce(keys, order, lo)
		first, last := keys[order[lo]], keys[order[hi-1]]
		span := last - first + 1
		if cap(buf) < span*8 {
			buf = make([]byte, span*8)
		}
		b := buf[:span*8]
		n, err := s.f.ReadAt(b, s.offset(first))
		s.reads++
		s.bytesRead += int64(n)
		if err != nil {
			covered := n / 8 // complete cells before the cut
			for _, i := range order[lo:hi] {
				if off := keys[i] - first; off < covered {
					dst[i] = cellAt(b, off)
				} else {
					failed = append(failed, KeyError{Index: i, Key: keys[i], Err: err})
				}
			}
			lo = hi
			continue
		}
		for _, i := range order[lo:hi] {
			dst[i] = cellAt(b, keys[i]-first)
		}
		lo = hi
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
	return batchError(failed)
}

// cellAt decodes the little-endian float64 at cell index i of a coalesced
// read buffer.
func cellAt(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8 : i*8+8]))
}

// Add implements Updatable with a read-modify-write. The file must have
// been opened writable (CreateFileStore does; OpenFileStore opens read-only
// and Add panics).
func (s *FileStore) Add(key int, delta float64) {
	if key < 0 || key >= s.n {
		panic(fmt.Sprintf("storage: key %d out of range [0,%d)", key, s.n))
	}
	var buf [8]byte
	off := s.offset(key)
	if _, err := s.f.ReadAt(buf[:], off); err != nil {
		panic(fmt.Sprintf("storage: reading coefficient %d: %v", key, err))
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:])) + delta
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	if _, err := s.f.WriteAt(buf[:], off); err != nil {
		panic(fmt.Sprintf("storage: writing coefficient %d: %v", key, err))
	}
}

func (s *FileStore) offset(key int) int64 {
	return int64(fileStoreHeaderSize) + int64(key)*8
}

// Retrievals implements Store.
func (s *FileStore) Retrievals() int64 { return s.retrievals }

// ResetStats implements Store; it also zeroes the batch I/O counters.
func (s *FileStore) ResetStats() {
	s.retrievals = 0
	s.reads = 0
	s.bytesRead = 0
}

// IOStats reports the physical cost of the coalescing batch path since the
// last ResetStats: positioned-read syscalls issued and bytes actually read
// (requested cells plus the gap bytes read through). Tests pin the read
// amplification — bytesRead over 8·retrievals — with these.
func (s *FileStore) IOStats() (reads, bytesRead int64) {
	return s.reads, s.bytesRead
}

// NonzeroCount implements Store with a sequential scan.
func (s *FileStore) NonzeroCount() int {
	n := 0
	s.ForEachNonzero(func(int, float64) bool { n++; return true })
	return n
}

// Size returns the total number of cells.
func (s *FileStore) Size() int { return s.n }

// ForEachNonzero implements Enumerable with a buffered sequential scan.
func (s *FileStore) ForEachNonzero(fn func(key int, value float64) bool) {
	r := bufio.NewReaderSize(&readerAt{f: s.f, off: int64(fileStoreHeaderSize)}, 1<<20)
	var buf [8]byte
	for k := 0; k < s.n; k++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			panic(fmt.Sprintf("storage: scanning coefficient %d: %v", k, err))
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		if v != 0 && !fn(k, v) {
			return
		}
	}
}

// Close releases the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// readerAt adapts positioned reads to the io.Reader bufio needs, without
// disturbing other users of the shared file offset.
type readerAt struct {
	f   *os.File
	off int64
}

func (r *readerAt) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

var (
	_ Updatable  = (*FileStore)(nil)
	_ Enumerable = (*FileStore)(nil)
)
