package storage

import "testing"

func TestRemappedStoreTranslatesKeys(t *testing.T) {
	// layout[slot] = key: key 0 stored at slot 2, key 1 at slot 0, key 2 at 1.
	cells := []float64{10, 20, 30} // logical values by key
	relocated, err := ApplyLayout(cells, []int{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	// relocated[0]=cells[1]=20, relocated[1]=cells[2]=30, relocated[2]=cells[0]=10.
	if relocated[0] != 20 || relocated[1] != 30 || relocated[2] != 10 {
		t.Fatalf("relocated = %v", relocated)
	}
	inner := NewArrayStore(relocated)
	rs, err := NewRemappedStore(inner, []int{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range cells {
		if got := Get(rs, key); got != want {
			t.Fatalf("Get(%d) = %g, want %g", key, got, want)
		}
	}
	if rs.Slot(1) != 0 || rs.Slot(0) != 2 {
		t.Fatal("Slot mapping wrong")
	}
	if rs.Retrievals() != 3 {
		t.Fatalf("Retrievals = %d", rs.Retrievals())
	}
	rs.ResetStats()
	if rs.Retrievals() != 0 {
		t.Fatal("ResetStats failed")
	}
	if rs.NonzeroCount() != 3 {
		t.Fatal("NonzeroCount should delegate")
	}
}

func TestNewRemappedStoreValidation(t *testing.T) {
	inner := NewArrayStore(make([]float64, 3))
	if _, err := NewRemappedStore(inner, []int{0, 1, 5}); err == nil {
		t.Error("out-of-range layout entry should fail")
	}
	if _, err := NewRemappedStore(inner, []int{0, 1, 1}); err == nil {
		t.Error("repeated layout entry should fail")
	}
}

func TestApplyLayoutValidation(t *testing.T) {
	if _, err := ApplyLayout([]float64{1, 2}, []int{0}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := ApplyLayout([]float64{1, 2}, []int{0, 9}); err == nil {
		t.Error("out-of-range entry should fail")
	}
}

func TestRemappedStorePanicsOutOfRange(t *testing.T) {
	rs, err := NewRemappedStore(NewArrayStore(make([]float64, 2)), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Get(rs, 5)
}

func TestRemappedBlockStoreCountsPhysicalBlocks(t *testing.T) {
	// Two logical keys far apart land in one physical block under a layout
	// that co-locates them.
	cells := make([]float64, 8)
	for i := range cells {
		cells[i] = float64(i + 1)
	}
	layout := []int{0, 7, 1, 2, 3, 4, 5, 6} // keys 0 and 7 share slot block 0 (block size 2)
	relocated, err := ApplyLayout(cells, layout)
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBlockStore(NewArrayStore(relocated), 2)
	rs, err := NewRemappedStore(bs, layout)
	if err != nil {
		t.Fatal(err)
	}
	if Get(rs, 0) != 1 || Get(rs, 7) != 8 {
		t.Fatal("values wrong through remap")
	}
	if bs.BlockReads() != 1 {
		t.Fatalf("BlockReads = %d, want 1 (keys co-located)", bs.BlockReads())
	}
}
