package repro_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/server"
)

// TestServerStackOverPreadLayout: server.New leaves the coalescer out over a
// mapped file, whose reads are page-cache loads, and puts it over the same
// file read through positioned reads, where a fetch is a syscall — each as
// DESIGN.md §11's printed-stack table says (internal/server's
// TestPrintedStacksMatchDesign checks the other rows).
func TestServerStackOverPreadLayout(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if cells := strings.Split(strings.TrimSpace(line), "|"); len(cells) == 4 {
			rows[strings.TrimSpace(cells[1])] = strings.Trim(strings.TrimSpace(cells[2]), "`")
		}
	}
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	built, err := repro.NewDatabase(repro.UniformData(schema, 30, 5), repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.wvls")
	if _, err := built.SaveLayout(path, repro.LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	for shape, open := range map[string]func(string) (*repro.Database, error){
		"`-db`, dense file":          repro.OpenLayout,
		"`-db`, mapping unavailable": repro.OpenLayoutPread,
	} {
		db, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
		db.SetStack(repro.Stack{Instrument: true})
		h := server.New(db, server.Options{})
		t.Cleanup(h.Close)
		want, ok := rows[shape]
		if !ok {
			t.Fatalf("DESIGN.md §11 prints no row %s", shape)
		}
		if got := db.StoreStack(); got != want {
			t.Errorf("%s: serves %q, DESIGN.md §11 prints %q", shape, got, want)
		}
	}
}
