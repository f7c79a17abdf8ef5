//go:build linux

package layout

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
)

// residentKB returns the Rss of path's mapping in this process, from
// /proc/self/smaps.
func residentKB(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in, found, kb := false, false, 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasSuffix(line, " "+path) {
			in, found = true, true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "Rss:"); ok && in {
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")))
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			kb, in = kb+n, false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("%s is not mapped", path)
	}
	return kb
}

// TestDropPagesLeavesReadsAlone: after a walk has touched the whole
// mapping, DropPages takes it out of the resident set, and every key still
// reads back the value it was written with.
func TestDropPagesLeavesReadsAlone(t *testing.T) {
	keys, values := testCoefficients(60_000, 1<<20, 5)
	path := writeDirectoryLayout(t, keys, values, WriteOptions{Cells: 1 << 20})
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.fileMapped {
		t.Skip("the mapping is unavailable")
	}
	if err := s.Walk(func(int, float64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if kb := residentKB(t, path); kb < 256 {
		t.Fatalf("a whole walk left %d kB resident", kb)
	}
	s.DropPages()
	if kb := residentKB(t, path); kb != 0 {
		t.Fatalf("%d kB resident after DropPages", kb)
	}
	got := make([]float64, len(keys))
	if err := s.BatchGetCtx(context.Background(), keys, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if got[i] != v {
			t.Fatalf("key %d reads %v after DropPages, written %v", keys[i], got[i], v)
		}
	}
}
