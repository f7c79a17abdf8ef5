package main

import (
	"bytes"
	"testing"

	"repro"
)

func temp5dSchema(t *testing.T) *repro.Schema {
	t.Helper()
	s, err := repro.NewSchema([]string{"latitude", "longitude", "altitude", "time", "temperature"}, []int{32, 32, 8, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Same seed → byte-identical inputs; another seed → other inputs.
func TestGeneratorsAreDeterministic(t *testing.T) {
	fams, mix := temp5dFamilies()
	a := newStmtStream(subSeed(7, purposeAdhoc), fams, mix).Take(500)
	b := newStmtStream(subSeed(7, purposeAdhoc), fams, mix).Take(500)
	c := newStmtStream(subSeed(8, purposeAdhoc), fams, mix).Take(500)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same {
		t.Error("statement stream differs between two runs of one seed")
	}
	if !differ {
		t.Error("statement stream does not depend on the seed")
	}
	if !bytes.Equal(grid2dCSV(7, 2000), grid2dCSV(7, 2000)) {
		t.Error("CSV differs between two runs of one seed")
	}
	if bytes.Equal(grid2dCSV(7, 2000), grid2dCSV(8, 2000)) {
		t.Error("CSV does not depend on the seed")
	}
	x, y := newIngestStream(7), newIngestStream(7)
	for i := 0; i < 3; i++ {
		bx, cx := x.Next()
		by, _ := y.Next()
		if !bytes.Equal(bx, by) {
			t.Fatalf("ingest body %d differs between two runs of one seed", i)
		}
		if len(cx) != ingestTuples {
			t.Fatalf("ingest body %d carries %d tuples, want %d", i, len(cx), ingestTuples)
		}
		for _, c := range cx {
			if c[0] < 0 || c[0] >= 1024 || c[1] < 0 || c[1] >= 1024 {
				t.Fatalf("ingest coordinate %v outside the 1024×1024 grid", c)
			}
		}
	}
}

// The ad-hoc stream never repeats a statement within a run's worth of
// requests (that is what makes the registry hit ratio 0 by construction),
// every statement parses, and the heavy family sits at every fourth place.
func TestAdhocStreamIsFreshAndWellFormed(t *testing.T) {
	schema := temp5dSchema(t)
	for name, gen := range map[string]func() ([]family, []int){"regular": temp5dFamilies, "light": temp5dLightFamilies} {
		fams, mix := gen()
		n := 2000
		if name == "light" {
			n = 32 // only ever used as a 32-handle pool
		}
		seen := map[string]bool{}
		for i, stmt := range newStmtStream(1, fams, mix).Take(n) {
			if seen[stmt] {
				t.Fatalf("%s: statement %d repeats: %s", name, i, stmt)
			}
			seen[stmt] = true
			batch, err := repro.ParseBatch(schema, stmt)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, stmt, err)
			}
			if want := map[string]int{"regular": 8, "light": 4}[name]; len(batch) != want {
				t.Fatalf("%s: %q expands to %d cells, want %d", name, stmt, len(batch), want)
			}
			if name == "regular" && (i%4 == 3) != (stmt[:5] == "COUNT") {
				t.Fatalf("position %d holds %q: the 2-D family belongs at every fourth place and only there", i, stmt)
			}
		}
	}
}
