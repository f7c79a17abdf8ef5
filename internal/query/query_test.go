package query

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/storetest"
	"repro/internal/wavelet"
)

func testSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema([]string{"x", "y"}, []int{16, 16})
}

func TestNewRangeValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := NewRange(s, []int{0}, []int{1}); err == nil {
		t.Error("dimensionality mismatch should fail")
	}
	if _, err := NewRange(s, []int{-1, 0}, []int{3, 3}); err == nil {
		t.Error("negative lo should fail")
	}
	if _, err := NewRange(s, []int{0, 0}, []int{16, 3}); err == nil {
		t.Error("hi out of range should fail")
	}
	if _, err := NewRange(s, []int{5, 0}, []int{3, 3}); err == nil {
		t.Error("inverted bounds should fail")
	}
	r, err := NewRange(s, []int{1, 2}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Volume() != 9 {
		t.Fatalf("Volume = %d", r.Volume())
	}
	if !r.Contains([]int{2, 3}) || r.Contains([]int{0, 3}) {
		t.Fatal("Contains wrong")
	}
	if r.String() != "[1,3]×[2,4]" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestFullDomain(t *testing.T) {
	s := testSchema(t)
	r := FullDomain(s)
	if r.Volume() != 256 {
		t.Fatalf("Volume = %d", r.Volume())
	}
}

func TestCountQueryDirect(t *testing.T) {
	s := testSchema(t)
	d := dataset.NewDistribution(s)
	d.AddTuple([]int{2, 2})
	d.AddTuple([]int{2, 2})
	d.AddTuple([]int{5, 5})
	d.AddTuple([]int{15, 15})
	r, _ := NewRange(s, []int{0, 0}, []int{7, 7})
	q := Count(s, r)
	if got := q.EvaluateDirect(d); got != 3 {
		t.Fatalf("Count = %g, want 3", got)
	}
}

func TestSumQueryDirect(t *testing.T) {
	s := testSchema(t)
	d := dataset.NewDistribution(s)
	d.AddTuple([]int{2, 3})
	d.AddTuple([]int{4, 7})
	r := FullDomain(s)
	q, err := Sum(s, r, "y")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.EvaluateDirect(d); got != 10 {
		t.Fatalf("Sum(y) = %g, want 10", got)
	}
	if _, err := Sum(s, r, "nope"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestSumProductAndSquaresDirect(t *testing.T) {
	s := testSchema(t)
	d := dataset.NewDistribution(s)
	d.AddTuple([]int{2, 3})
	d.AddTuple([]int{4, 5})
	r := FullDomain(s)
	qp, err := SumProduct(s, r, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if got := qp.EvaluateDirect(d); got != 2*3+4*5 {
		t.Fatalf("SumProduct = %g", got)
	}
	qs, err := SumSquares(s, r, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := qs.EvaluateDirect(d); got != 4+16 {
		t.Fatalf("SumSquares = %g", got)
	}
	// Self product x·x has degree 2.
	qxx, err := SumProduct(s, r, "x", "x")
	if err != nil {
		t.Fatal(err)
	}
	if qxx.Degree() != 2 {
		t.Fatalf("Degree = %d", qxx.Degree())
	}
}

func TestDegree(t *testing.T) {
	s := testSchema(t)
	r := FullDomain(s)
	if Count(s, r).Degree() != 0 {
		t.Fatal("count degree should be 0")
	}
	q, _ := Sum(s, r, "x")
	if q.Degree() != 1 {
		t.Fatal("sum degree should be 1")
	}
}

func TestValidate(t *testing.T) {
	s := testSchema(t)
	q := Count(s, FullDomain(s))
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Query{Schema: s, Range: FullDomain(s)}
	if err := bad.Validate(); err == nil {
		t.Error("no terms should fail")
	}
	bad2 := Count(s, FullDomain(s))
	bad2.Terms[0].Powers = []int{1}
	if err := bad2.Validate(); err == nil {
		t.Error("powers mismatch should fail")
	}
	bad3 := Count(s, FullDomain(s))
	bad3.Range.Hi[0] = 99
	if err := bad3.Validate(); err == nil {
		t.Error("range out of schema should fail")
	}
}

// The central correctness property: evaluating ⟨q̂, Δ̂⟩ reproduces the
// direct evaluation for random data, ranges and query types.
func TestCoefficientsParsevalEvaluation(t *testing.T) {
	s := testSchema(t)
	d := dataset.Uniform(s, 2000, 99)
	for _, f := range []*wavelet.Filter{wavelet.Haar, wavelet.Db4, wavelet.Db6} {
		hat, err := d.Transform(f)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 25; trial++ {
			lo := []int{rng.Intn(16), rng.Intn(16)}
			hi := []int{lo[0] + rng.Intn(16-lo[0]), lo[1] + rng.Intn(16-lo[1])}
			r, err := NewRange(s, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			queries := []*Query{Count(s, r)}
			if f.SupportsDegree(1) {
				qsum, _ := Sum(s, r, "x")
				queries = append(queries, qsum)
			}
			if f.SupportsDegree(2) {
				qprod, _ := SumProduct(s, r, "x", "y")
				qsq, _ := SumSquares(s, r, "y")
				queries = append(queries, qprod, qsq)
			}
			for _, q := range queries {
				coeffs, err := q.Coefficients(f)
				if err != nil {
					t.Fatal(err)
				}
				got := coeffs.DotDense(hat)
				want := q.EvaluateDirect(d)
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("%s %s: got %g want %g", f.Name, q.Label, got, want)
				}
			}
		}
	}
}

func TestCoefficientsSparsity(t *testing.T) {
	// A degree-1 SUM query under Db4 on a 16×16 domain must have far fewer
	// nonzero coefficients than the 256-cell domain.
	s := testSchema(t)
	r, _ := NewRange(s, []int{3, 5}, []int{12, 11})
	q, _ := Sum(s, r, "x")
	coeffs, err := q.Coefficients(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	if len(coeffs) >= 200 {
		t.Fatalf("expected sparse rewriting, got %d nonzeros", len(coeffs))
	}
}

func TestCoefficientsMultiTermQuery(t *testing.T) {
	// p(x,y) = 2 + 3x combines two terms; result must match direct eval.
	s := testSchema(t)
	d := dataset.Uniform(s, 1000, 5)
	r, _ := NewRange(s, []int{2, 2}, []int{13, 9})
	q := &Query{
		Schema: s,
		Range:  r,
		Terms: []Term{
			{Coeff: 2, Powers: []int{0, 0}},
			{Coeff: 3, Powers: []int{1, 0}},
		},
		Label: "2+3x",
	}
	hat, err := d.Transform(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := q.Coefficients(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	got := coeffs.DotDense(hat)
	want := q.EvaluateDirect(d)
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("got %g want %g", got, want)
	}
}

// TestRewriteMatchesCoefficients: the product a query rewrites into holds
// the nonzero coefficients Coefficients materializes, each key once and in
// strictly ascending order, for the single-term tensor form and the
// accumulated multi-term one.
func TestRewriteMatchesCoefficients(t *testing.T) {
	s := testSchema(t)
	r, _ := NewRange(s, []int{2, 3}, []int{13, 11})
	single, _ := Sum(s, r, "x")
	multi := &Query{
		Schema: s,
		Range:  r,
		Terms: []Term{
			{Coeff: 2, Powers: []int{0, 0}},
			{Coeff: -1, Powers: []int{1, 0}},
		},
		Label: "multi",
	}
	for _, q := range []*Query{single, multi} {
		want, err := q.Coefficients(wavelet.Db4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.Rewrite(wavelet.Db4)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([]sparse.Entry, p.Len())
		p.Fill(pairs)
		if len(pairs) != len(want) {
			t.Fatalf("%s: %d pairs rewritten, %d materialized", q.Label, len(pairs), len(want))
		}
		for i, e := range pairs {
			if i > 0 && e.Key <= pairs[i-1].Key {
				t.Fatalf("%s: key %d after %d", q.Label, e.Key, pairs[i-1].Key)
			}
			if v := want[e.Key]; math.Abs(e.Val-v) > 1e-12*(1+math.Abs(v)) {
				t.Fatalf("%s: key %d: %g vs %g", q.Label, e.Key, e.Val, v)
			}
		}
	}
	bad := &Query{Schema: s, Range: r}
	if _, err := bad.Rewrite(wavelet.Db4); err == nil {
		t.Error("invalid query should fail")
	}
}

func TestBatchValidate(t *testing.T) {
	s := testSchema(t)
	var empty Batch
	if err := empty.Validate(); err == nil {
		t.Error("empty batch should fail")
	}
	other := dataset.MustSchema([]string{"z"}, []int{8})
	b := Batch{Count(s, FullDomain(s)), Count(other, FullDomain(other))}
	if err := b.Validate(); err == nil {
		t.Error("mixed schemas should fail")
	}
	good := Batch{Count(s, FullDomain(s))}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Degree() != 0 {
		t.Fatal("Degree wrong")
	}
}

func TestRandomPartitionCoversDomainDisjointly(t *testing.T) {
	s := dataset.MustSchema([]string{"x", "y", "z"}, []int{8, 8, 4})
	ranges, err := RandomPartition(s, 17, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 17 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	// Every cell covered exactly once.
	seen := make([]int, s.Cells())
	coords := make([]int, 3)
	for idx := range seen {
		wavelet.Unflatten(idx, s.Sizes, coords)
		for _, r := range ranges {
			if r.Contains(coords) {
				seen[idx]++
			}
		}
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("cell %d covered %d times", idx, c)
		}
	}
}

func TestRandomPartitionDeterministic(t *testing.T) {
	s := testSchema(t)
	a, err := RandomPartition(s, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPartition(s, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestRandomPartitionErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := RandomPartition(s, 0, 1); err == nil {
		t.Error("count 0 should fail")
	}
	if _, err := RandomPartition(s, 257, 1); err == nil {
		t.Error("more ranges than cells should fail")
	}
	// Exactly cells many ranges is legal (every cell its own range).
	tiny := dataset.MustSchema([]string{"x"}, []int{4})
	rs, err := RandomPartition(tiny, 4, 1)
	if err != nil || len(rs) != 4 {
		t.Fatalf("full split failed: %v", err)
	}
}

func TestGridPartition(t *testing.T) {
	s := testSchema(t)
	ranges, err := GridPartition(s, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 8 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	for _, r := range ranges {
		if r.Volume() != 4*8 {
			t.Fatalf("grid cell volume %d", r.Volume())
		}
	}
	if _, err := GridPartition(s, []int{3, 2}); err == nil {
		t.Error("non-dividing grid should fail")
	}
	if _, err := GridPartition(s, []int{4}); err == nil {
		t.Error("dimensionality mismatch should fail")
	}
}

func TestSumBatchAndCountBatch(t *testing.T) {
	s := testSchema(t)
	ranges, err := GridPartition(s, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SumBatch(s, ranges, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 4 || b.Degree() != 1 {
		t.Fatalf("SumBatch wrong: len=%d deg=%d", len(b), b.Degree())
	}
	if _, err := SumBatch(s, ranges, "bogus"); err == nil {
		t.Error("bad attribute should fail")
	}
	cb := CountBatch(s, ranges)
	if len(cb) != 4 || cb.Degree() != 0 {
		t.Fatal("CountBatch wrong")
	}
}

func TestPartitionBatchSumsToWholeDomain(t *testing.T) {
	// Σ over partition of SUM results = SUM over full domain: the additive
	// sanity check of a partition workload.
	s := testSchema(t)
	d := dataset.Uniform(s, 3000, 17)
	ranges, err := RandomPartition(s, 13, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SumBatch(s, ranges, "y")
	if err != nil {
		t.Fatal(err)
	}
	results := batch.EvaluateDirect(d)
	var total float64
	for _, v := range results {
		total += v
	}
	full, _ := Sum(s, FullDomain(s), "y")
	want := full.EvaluateDirect(d)
	if math.Abs(total-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("partition total %g, domain total %g", total, want)
	}
}

func TestCoefficientsAgainstStore(t *testing.T) {
	// End-to-end with a storage layer: coefficients dotted against a hash
	// store recover the exact answer, and the retrieval count equals the
	// coefficient count.
	s := testSchema(t)
	d := dataset.Uniform(s, 800, 23)
	hat, err := d.Transform(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	st := storetest.NewCounting(storage.NewSparseStoreFromDense(hat))
	r, _ := NewRange(s, []int{1, 1}, []int{10, 14})
	q, _ := Sum(s, r, "x")
	coeffs, err := q.Coefficients(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for k, c := range coeffs {
		got += c * storage.Get(st, k)
	}
	want := q.EvaluateDirect(d)
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("got %g want %g", got, want)
	}
	if st.Retrievals() != int64(len(coeffs)) {
		t.Fatalf("retrievals %d != coefficients %d", st.Retrievals(), len(coeffs))
	}
}

func BenchmarkSumQueryCoefficients(b *testing.B) {
	s := dataset.MustSchema([]string{"x", "y", "z"}, []int{64, 64, 32})
	r, err := NewRange(s, []int{5, 10, 2}, []int{50, 60, 30})
	if err != nil {
		b.Fatal(err)
	}
	q, err := Sum(s, r, "x")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Coefficients(wavelet.Db4); err != nil {
			b.Fatal(err)
		}
	}
}
