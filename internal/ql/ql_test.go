package ql

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

func testSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema([]string{"age", "salary", "dept"}, []int{64, 64, 8})
}

func TestParseCount(t *testing.T) {
	s := testSchema(t)
	q, err := Parse(s, "COUNT()")
	if err != nil {
		t.Fatal(err)
	}
	if q.Degree() != 0 {
		t.Fatalf("degree = %d", q.Degree())
	}
	if q.Range.Volume() != s.Cells() {
		t.Fatal("COUNT() should span the full domain")
	}
}

func TestParseSumWithBetween(t *testing.T) {
	s := testSchema(t)
	q, err := Parse(s, "SUM(salary) WHERE age BETWEEN 25 AND 40")
	if err != nil {
		t.Fatal(err)
	}
	if q.Range.Lo[0] != 25 || q.Range.Hi[0] != 40 {
		t.Fatalf("age range [%d,%d]", q.Range.Lo[0], q.Range.Hi[0])
	}
	if q.Range.Lo[1] != 0 || q.Range.Hi[1] != 63 {
		t.Fatal("salary should span full domain")
	}
	if q.Degree() != 1 {
		t.Fatalf("degree = %d", q.Degree())
	}
}

func TestParseOperators(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		src    string
		lo, hi int
	}{
		{"COUNT() WHERE age < 10", 0, 9},
		{"COUNT() WHERE age <= 10", 0, 10},
		{"COUNT() WHERE age > 10", 11, 63},
		{"COUNT() WHERE age >= 10", 10, 63},
		{"COUNT() WHERE age = 10", 10, 10},
	}
	for _, c := range cases {
		q, err := Parse(s, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if q.Range.Lo[0] != c.lo || q.Range.Hi[0] != c.hi {
			t.Fatalf("%s: range [%d,%d], want [%d,%d]", c.src, q.Range.Lo[0], q.Range.Hi[0], c.lo, c.hi)
		}
	}
}

func TestParseConjunctionIntersects(t *testing.T) {
	s := testSchema(t)
	q, err := Parse(s, "COUNT() WHERE age >= 20 AND age < 40 AND dept = 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.Range.Lo[0] != 20 || q.Range.Hi[0] != 39 {
		t.Fatalf("age range [%d,%d]", q.Range.Lo[0], q.Range.Hi[0])
	}
	if q.Range.Lo[2] != 3 || q.Range.Hi[2] != 3 {
		t.Fatalf("dept range [%d,%d]", q.Range.Lo[2], q.Range.Hi[2])
	}
}

func TestParseSumProdAndSumSq(t *testing.T) {
	s := testSchema(t)
	q, err := Parse(s, "SUMPROD(age, salary) WHERE dept = 1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Degree() != 1 {
		t.Fatalf("SUMPROD degree = %d", q.Degree())
	}
	q2, err := Parse(s, "SUMSQ(age)")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Degree() != 2 {
		t.Fatalf("SUMSQ degree = %d", q2.Degree())
	}
}

func TestParseClampsToDomain(t *testing.T) {
	s := testSchema(t)
	q, err := Parse(s, "COUNT() WHERE age <= 1000 AND salary >= -5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Range.Hi[0] != 63 || q.Range.Lo[1] != 0 {
		t.Fatal("out-of-domain bounds should clamp")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := testSchema(t)
	if _, err := Parse(s, "sum(salary) where age between 1 and 5 and dept = 2"); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	s := testSchema(t)
	cases := []string{
		"",
		"FROBNICATE()",
		"COUNT(age)",
		"SUM()",
		"SUM(age, salary)",
		"SUMPROD(age)",
		"SUM(bogus)",
		"COUNT() WHERE",
		"COUNT() WHERE age",
		"COUNT() WHERE age !! 3",
		"COUNT() WHERE age BETWEEN 5",
		"COUNT() WHERE age BETWEEN 5 OR 7",
		"COUNT() WHERE bogus = 3",
		"COUNT() WHERE age = 3 trailing",
		"COUNT() WHERE age > 10 AND age < 5", // empty range
		"COUNT() WHERE age = 99",             // empty after clamp (99 > 63)
		"SUM(salary",
		"SUM salary)",
		"COUNT() WHERE age = 1 AND",
		"COUNT() WHERE age = -",
	}
	for _, src := range cases {
		if _, err := Parse(s, src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestParseBatch(t *testing.T) {
	s := testSchema(t)
	batch, err := ParseBatch(s, `
		COUNT() WHERE dept = 0;
		SUM(salary) WHERE dept = 0;
		SUM(salary) WHERE dept = 1
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch size %d", len(batch))
	}
	if err := batch.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBatch(s, "  ;;  "); err == nil {
		t.Error("empty batch should fail")
	}
	if _, err := ParseBatch(s, "COUNT(); BAD()"); err == nil {
		t.Error("bad statement should fail")
	}
}

func TestParsedQueriesEvaluateCorrectly(t *testing.T) {
	s := testSchema(t)
	dist := dataset.NewDistribution(s)
	dist.AddTuple([]int{30, 40, 2})
	dist.AddTuple([]int{30, 40, 2})
	dist.AddTuple([]int{50, 10, 3})

	q, err := Parse(s, "SUM(salary) WHERE age BETWEEN 25 AND 40 AND dept = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.EvaluateDirect(dist); math.Abs(got-80) > 1e-12 {
		t.Fatalf("SUM = %g, want 80", got)
	}
	qc, err := Parse(s, "COUNT() WHERE age > 40")
	if err != nil {
		t.Fatal(err)
	}
	if got := qc.EvaluateDirect(dist); got != 1 {
		t.Fatalf("COUNT = %g, want 1", got)
	}
}

func TestEqualRangeBetweenAndOps(t *testing.T) {
	// BETWEEN lo AND hi must equal the conjunction of >= lo and <= hi.
	s := testSchema(t)
	a, err := Parse(s, "COUNT() WHERE age BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(s, "COUNT() WHERE age >= 10 AND age <= 20")
	if err != nil {
		t.Fatal(err)
	}
	if a.Range.String() != b.Range.String() {
		t.Fatalf("%s vs %s", a.Range, b.Range)
	}
}

func TestLexerPositionsInErrors(t *testing.T) {
	s := testSchema(t)
	_, err := Parse(s, "COUNT() WHERE age ? 3")
	if err == nil || !strings.Contains(err.Error(), "position") {
		t.Fatalf("error should cite a position, got %v", err)
	}
}

func TestQueryVolumeMatchesPredicates(t *testing.T) {
	s := testSchema(t)
	q, err := Parse(s, "COUNT() WHERE age = 5 AND salary = 6 AND dept = 7")
	if err != nil {
		t.Fatal(err)
	}
	if q.Range.Volume() != 1 {
		t.Fatalf("volume = %d", q.Range.Volume())
	}
	cell := []int{5, 6, 7}
	if !q.Range.Contains(cell) {
		t.Fatal("range should contain the selected cell")
	}
}

func TestGroupByExpandsToBatch(t *testing.T) {
	s := testSchema(t)
	batch, err := ParseBatch(s, "SUM(salary) GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 8 {
		t.Fatalf("batch size %d, want 8 (one per dept)", len(batch))
	}
	for d, q := range batch {
		if q.Range.Lo[2] != d || q.Range.Hi[2] != d {
			t.Fatalf("query %d has dept range [%d,%d]", d, q.Range.Lo[2], q.Range.Hi[2])
		}
	}
}

func TestGroupByBucketsAndWhere(t *testing.T) {
	s := testSchema(t)
	batch, err := ParseBatch(s, "COUNT() WHERE age BETWEEN 10 AND 29 GROUP BY age(8)")
	if err != nil {
		t.Fatal(err)
	}
	// Width-8 buckets aligned to 0 overlapping [10,29]: [8,15]∩ → [10,15],
	// [16,23], [24,29]. Three queries.
	if len(batch) != 3 {
		t.Fatalf("batch size %d, want 3", len(batch))
	}
	wantLo := []int{10, 16, 24}
	wantHi := []int{15, 23, 29}
	for i, q := range batch {
		if q.Range.Lo[0] != wantLo[i] || q.Range.Hi[0] != wantHi[i] {
			t.Fatalf("bucket %d = [%d,%d], want [%d,%d]",
				i, q.Range.Lo[0], q.Range.Hi[0], wantLo[i], wantHi[i])
		}
	}
}

func TestGroupByMultipleAttributes(t *testing.T) {
	s := testSchema(t)
	batch, err := ParseBatch(s, "COUNT() GROUP BY dept(4), age(32)")
	if err != nil {
		t.Fatal(err)
	}
	// 2 dept buckets × 2 age buckets = 4.
	if len(batch) != 4 {
		t.Fatalf("batch size %d, want 4", len(batch))
	}
	// The group cells partition the domain: total counts must match.
	dist := dataset.NewDistribution(s)
	dist.AddTuple([]int{5, 5, 1})
	dist.AddTuple([]int{40, 5, 6})
	var total float64
	for _, q := range batch {
		total += q.EvaluateDirect(dist)
	}
	if total != 2 {
		t.Fatalf("group cells are not a partition: total %g", total)
	}
}

func TestGroupByErrors(t *testing.T) {
	s := testSchema(t)
	cases := []string{
		"COUNT() GROUP age",
		"COUNT() GROUP BY",
		"COUNT() GROUP BY bogus",
		"COUNT() GROUP BY age, age",
		"COUNT() GROUP BY age(0)",
		"COUNT() GROUP BY age(8",
		"COUNT() GROUP BY age(8) trailing",
	}
	for _, src := range cases {
		if _, err := ParseBatch(s, src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
	// Parse (single-query API) must reject GROUP BY expansion.
	if _, err := Parse(s, "COUNT() GROUP BY dept"); err == nil {
		t.Error("Parse should reject multi-query GROUP BY")
	}
}

func TestGroupByMatchesManualPartition(t *testing.T) {
	s := testSchema(t)
	dist := dataset.NewDistribution(s)
	for i := 0; i < 50; i++ {
		dist.AddTuple([]int{(i * 7) % 64, (i * 13) % 64, i % 8})
	}
	batch, err := ParseBatch(s, "SUM(salary) GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	results := batch.EvaluateDirect(dist)
	for d := 0; d < 8; d++ {
		r, err := query.NewRange(s, []int{0, 0, d}, []int{63, 63, d})
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Sum(s, r, "salary")
		if err != nil {
			t.Fatal(err)
		}
		if want := q.EvaluateDirect(dist); results[d] != want {
			t.Fatalf("dept %d: %g want %g", d, results[d], want)
		}
	}
}

var parseSink *query.Query

func BenchmarkParse(b *testing.B) {
	s := dataset.MustSchema([]string{"age", "salary", "dept"}, []int{64, 64, 8})
	src := "SUM(salary) WHERE age BETWEEN 25 AND 40 AND dept >= 2 AND dept <= 5"
	for i := 0; i < b.N; i++ {
		q, err := Parse(s, src)
		if err != nil {
			b.Fatal(err)
		}
		parseSink = q
	}
}

// CountStatements agrees with the statements ParseBatch reads: separators
// alone, blank segments and a trailing ';' count for nothing.
func TestCountStatementsMatchesSplit(t *testing.T) {
	for src, want := range map[string]int{
		"":                    0,
		";":                   0,
		" ; ;\n":              0,
		"COUNT()":             1,
		"COUNT();":            1,
		"COUNT();COUNT()":     2,
		"COUNT(); ;COUNT();;": 2,
	} {
		if got := CountStatements(src); got != want || got != len(splitStatements(src)) {
			t.Errorf("CountStatements(%q) = %d, want %d (split gives %d)", src, got, want, len(splitStatements(src)))
		}
	}
}
