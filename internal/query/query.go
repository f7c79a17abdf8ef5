// Package query models the paper's vector queries: polynomial range-sums
// q[x] = p(x)·χ_R(x) whose result is the inner product ⟨q, Δ⟩ with the data
// frequency distribution. It provides constructors for the COUNT, SUM and
// SUM-PRODUCT aggregates of Section 3, rewriting of query vectors into
// sparse wavelet coefficients, brute-force ground-truth evaluation, and
// workload generators (random domain partitions) used by the experiments.
package query

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/dataset"
	"repro/internal/poly"
	"repro/internal/sparse"
	"repro/internal/wavelet"
)

// Range is a hyper-rectangle in Dom(F): per-dimension inclusive bounds
// Lo[i] ≤ x_i ≤ Hi[i].
type Range struct {
	Lo, Hi []int
}

// NewRange validates bounds against the schema and returns the range.
func NewRange(schema *dataset.Schema, lo, hi []int) (Range, error) {
	if len(lo) != schema.NumDims() || len(hi) != schema.NumDims() {
		return Range{}, fmt.Errorf("query: range dimensionality %d/%d does not match schema (%d dims)",
			len(lo), len(hi), schema.NumDims())
	}
	for i := range lo {
		if lo[i] < 0 || hi[i] >= schema.Sizes[i] || lo[i] > hi[i] {
			return Range{}, fmt.Errorf("query: dimension %d bounds [%d,%d] invalid for size %d",
				i, lo[i], hi[i], schema.Sizes[i])
		}
	}
	return Range{Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...)}, nil
}

// FullDomain returns the range covering all of Dom(F).
func FullDomain(schema *dataset.Schema) Range {
	lo := make([]int, schema.NumDims())
	hi := make([]int, schema.NumDims())
	for i, n := range schema.Sizes {
		hi[i] = n - 1
	}
	return Range{Lo: lo, Hi: hi}
}

// Volume returns the number of cells in r.
func (r Range) Volume() int {
	v := 1
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i] + 1
	}
	return v
}

// Contains reports whether coords lies inside r.
func (r Range) Contains(coords []int) bool {
	for i, c := range coords {
		if c < r.Lo[i] || c > r.Hi[i] {
			return false
		}
	}
	return true
}

// String renders the range as [lo,hi]×….
func (r Range) String() string {
	s := ""
	for i := range r.Lo {
		if i > 0 {
			s += "×"
		}
		s += fmt.Sprintf("[%d,%d]", r.Lo[i], r.Hi[i])
	}
	return s
}

// Term is one monomial of the query polynomial: Coeff·Π_i x_i^Powers[i].
type Term struct {
	Coeff  float64
	Powers []int
}

// Query is a polynomial range-sum over a schema. Its result on a database
// with frequency distribution Δ is Σ_{x∈R} p(x)·Δ[x] where
// p(x) = Σ_terms Coeff·Π x_i^Powers[i].
type Query struct {
	Schema *dataset.Schema
	Range  Range
	Terms  []Term
	// Label names the query in reports; optional.
	Label string
}

// Count returns the range COUNT query |σ_R D|.
func Count(schema *dataset.Schema, r Range) *Query {
	return &Query{
		Schema: schema,
		Range:  r,
		Terms:  []Term{{Coeff: 1, Powers: make([]int, schema.NumDims())}},
		Label:  "count" + r.String(),
	}
}

// Sum returns the range SUM query over the named attribute:
// Σ_{x∈R} x_attr·Δ[x].
func Sum(schema *dataset.Schema, r Range, attr string) (*Query, error) {
	i, err := schema.AttrIndex(attr)
	if err != nil {
		return nil, err
	}
	powers := make([]int, schema.NumDims())
	powers[i] = 1
	return &Query{
		Schema: schema,
		Range:  r,
		Terms:  []Term{{Coeff: 1, Powers: powers}},
		Label:  fmt.Sprintf("sum(%s)%s", attr, r),
	}, nil
}

// SumSquares returns Σ_{x∈R} x_attr²·Δ[x], used for range VARIANCE.
func SumSquares(schema *dataset.Schema, r Range, attr string) (*Query, error) {
	i, err := schema.AttrIndex(attr)
	if err != nil {
		return nil, err
	}
	powers := make([]int, schema.NumDims())
	powers[i] = 2
	return &Query{
		Schema: schema,
		Range:  r,
		Terms:  []Term{{Coeff: 1, Powers: powers}},
		Label:  fmt.Sprintf("sumsq(%s)%s", attr, r),
	}, nil
}

// SumProduct returns Σ_{x∈R} x_i·x_j·Δ[x] for attributes i and j, used for
// range COVARIANCE.
func SumProduct(schema *dataset.Schema, r Range, attrI, attrJ string) (*Query, error) {
	i, err := schema.AttrIndex(attrI)
	if err != nil {
		return nil, err
	}
	j, err := schema.AttrIndex(attrJ)
	if err != nil {
		return nil, err
	}
	powers := make([]int, schema.NumDims())
	powers[i]++
	powers[j]++
	return &Query{
		Schema: schema,
		Range:  r,
		Terms:  []Term{{Coeff: 1, Powers: powers}},
		Label:  fmt.Sprintf("sumprod(%s,%s)%s", attrI, attrJ, r),
	}, nil
}

// Degree returns the maximum per-variable degree across all terms — the δ
// of Definition 1, which determines the minimum usable filter length 2δ+2.
func (q *Query) Degree() int {
	deg := 0
	for _, t := range q.Terms {
		for _, p := range t.Powers {
			if p > deg {
				deg = p
			}
		}
	}
	return deg
}

// Validate checks structural invariants.
func (q *Query) Validate() error {
	if q.Schema == nil {
		return fmt.Errorf("query: nil schema")
	}
	d := q.Schema.NumDims()
	if len(q.Range.Lo) != d || len(q.Range.Hi) != d {
		return fmt.Errorf("query: range dimensionality mismatch")
	}
	for i := range q.Range.Lo {
		if q.Range.Lo[i] < 0 || q.Range.Hi[i] >= q.Schema.Sizes[i] || q.Range.Lo[i] > q.Range.Hi[i] {
			return fmt.Errorf("query: dimension %d bounds [%d,%d] invalid for size %d",
				i, q.Range.Lo[i], q.Range.Hi[i], q.Schema.Sizes[i])
		}
	}
	if len(q.Terms) == 0 {
		return fmt.Errorf("query: no terms")
	}
	for _, t := range q.Terms {
		if len(t.Powers) != d {
			return fmt.Errorf("query: term powers dimensionality mismatch")
		}
		for _, p := range t.Powers {
			if p < 0 {
				return fmt.Errorf("query: negative power")
			}
		}
	}
	return nil
}

// Coefficients rewrites the query vector into the wavelet domain: the sparse
// vector q̂ with ⟨q, Δ⟩ = ⟨q̂, Δ̂⟩. Each term is separable, so its transform
// is the tensor product of per-dimension 1-D lazy transforms; terms are
// accumulated. The filter must have more vanishing moments than the query
// degree for the result to be sparse (it is exact either way).
func (q *Query) Coefficients(f *wavelet.Filter) (sparse.Vector, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	dims := q.Schema.Sizes
	out := sparse.New()
	for _, t := range q.Terms {
		if t.Coeff == 0 {
			continue
		}
		factors := make([]sparse.Vector, len(dims))
		for i, n := range dims {
			m, err := f.QueryTransform(poly.Monomial(1, t.Powers[i]), q.Range.Lo[i], q.Range.Hi[i], n)
			if err != nil {
				return nil, fmt.Errorf("query: dimension %d: %w", i, err)
			}
			factors[i] = sparse.Vector(m)
		}
		term, err := sparse.TensorProductVector(factors, dims)
		if err != nil {
			return nil, err
		}
		out.AddScaled(term, t.Coeff)
	}
	return out, nil
}

// Rewrite is Coefficients as a sparse.Product, whose pairs Fill writes in
// ascending key order without building a map. A single-term query (the
// COUNT/SUM/SUM-PRODUCT shapes) is the product of its per-dimension 1-D
// transforms scaled by the term coefficient; a multi-term query needs
// accumulation, so it is materialized through Coefficients and returned as
// a one-factor product.
func (q *Query) Rewrite(f *wavelet.Filter) (sparse.Product, error) {
	if err := q.Validate(); err != nil {
		return sparse.Product{}, err
	}
	if len(q.Terms) != 1 {
		vec, err := q.Coefficients(f)
		if err != nil {
			return sparse.Product{}, err
		}
		return vec.Product(), nil
	}
	t := q.Terms[0]
	if t.Coeff == 0 {
		return sparse.Product{}, nil
	}
	dims := q.Schema.Sizes
	factors := make([]sparse.Vector, len(dims))
	for i, n := range dims {
		m, err := f.QueryTransform(poly.Monomial(1, t.Powers[i]), q.Range.Lo[i], q.Range.Hi[i], n)
		if err != nil {
			return sparse.Product{}, fmt.Errorf("query: dimension %d: %w", i, err)
		}
		factors[i] = sparse.Vector(m)
	}
	return sparse.NewProduct(t.Coeff, factors, dims)
}

// EvaluateDirect computes the exact query result by scanning the cells of
// the range box in the raw distribution — the ground-truth oracle for tests
// and experiment error measurement.
func (q *Query) EvaluateDirect(d *dataset.Distribution) float64 {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	dims := q.Schema.Sizes
	coords := append([]int(nil), q.Range.Lo...)
	var total float64
	for {
		mult := d.Cells[wavelet.FlatIndex(coords, dims)]
		if mult != 0 {
			total += mult * q.evalPoly(coords)
		}
		// Advance odometer within the range box.
		i := len(coords) - 1
		for i >= 0 {
			coords[i]++
			if coords[i] <= q.Range.Hi[i] {
				break
			}
			coords[i] = q.Range.Lo[i]
			i--
		}
		if i < 0 {
			return total
		}
	}
}

func (q *Query) evalPoly(coords []int) float64 {
	var v float64
	for _, t := range q.Terms {
		term := t.Coeff
		for i, p := range t.Powers {
			for k := 0; k < p; k++ {
				term *= float64(coords[i])
			}
		}
		v += term
	}
	return v
}

// Batch is an ordered collection of queries evaluated together.
type Batch []*Query

// Validate checks every query and that all share one schema.
func (b Batch) Validate() error {
	if len(b) == 0 {
		return fmt.Errorf("query: empty batch")
	}
	schema := b[0].Schema
	for i, q := range b {
		if !q.Schema.Equal(schema) {
			return fmt.Errorf("query: query %d uses a different schema", i)
		}
		if err := q.Validate(); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// Degree returns the maximum degree across the batch.
func (b Batch) Degree() int {
	deg := 0
	for _, q := range b {
		if d := q.Degree(); d > deg {
			deg = d
		}
	}
	return deg
}

// EvaluateDirect returns ground-truth results for every query.
func (b Batch) EvaluateDirect(d *dataset.Distribution) []float64 {
	out := make([]float64, len(b))
	for i, q := range b {
		out[i] = q.EvaluateDirect(d)
	}
	return out
}

// RandomPartition splits the full domain into exactly count disjoint ranges
// whose union is Dom(F) — the "512 randomly sized ranges" workload of the
// paper's evaluation. It repeatedly picks a splittable box (probability
// proportional to volume) and cuts it at a uniformly random position along a
// random splittable dimension. The result is deterministic in seed.
func RandomPartition(schema *dataset.Schema, count int, seed int64) ([]Range, error) {
	if count < 1 {
		return nil, fmt.Errorf("query: partition count must be positive, got %d", count)
	}
	if count > schema.Cells() {
		return nil, fmt.Errorf("query: cannot split %d cells into %d ranges", schema.Cells(), count)
	}
	rng := rand.New(rand.NewSource(seed))
	boxes := []Range{FullDomain(schema)}
	for len(boxes) < count {
		// Choose a box with probability proportional to (volume-1) so only
		// splittable boxes are chosen.
		total := 0
		for _, b := range boxes {
			total += b.Volume() - 1
		}
		if total == 0 {
			return nil, fmt.Errorf("query: ran out of splittable boxes at %d ranges", len(boxes))
		}
		pick := rng.Intn(total)
		idx := 0
		for i, b := range boxes {
			v := b.Volume() - 1
			if pick < v {
				idx = i
				break
			}
			pick -= v
		}
		b := boxes[idx]
		// Choose a splittable dimension uniformly among those with >1 cell.
		var dimsOK []int
		for i := range b.Lo {
			if b.Hi[i] > b.Lo[i] {
				dimsOK = append(dimsOK, i)
			}
		}
		dim := dimsOK[rng.Intn(len(dimsOK))]
		// Cut after position cut ∈ [lo, hi-1].
		cut := b.Lo[dim] + rng.Intn(b.Hi[dim]-b.Lo[dim])
		left := Range{Lo: append([]int(nil), b.Lo...), Hi: append([]int(nil), b.Hi...)}
		right := Range{Lo: append([]int(nil), b.Lo...), Hi: append([]int(nil), b.Hi...)}
		left.Hi[dim] = cut
		right.Lo[dim] = cut + 1
		boxes[idx] = left
		boxes = append(boxes, right)
	}
	sortRanges(boxes)
	return boxes, nil
}

// GridPartition splits the domain into a regular grid with the given number
// of cells per dimension (each must divide the dimension size). Useful for
// deterministic tests and for the cursored-penalty experiment's notion of
// "neighboring" ranges.
func GridPartition(schema *dataset.Schema, cellsPerDim []int) ([]Range, error) {
	if len(cellsPerDim) != schema.NumDims() {
		return nil, fmt.Errorf("query: grid dimensionality mismatch")
	}
	for i, c := range cellsPerDim {
		if c < 1 || schema.Sizes[i]%c != 0 {
			return nil, fmt.Errorf("query: %d cells do not divide dimension %d of size %d",
				c, i, schema.Sizes[i])
		}
	}
	total := 1
	for _, c := range cellsPerDim {
		total *= c
	}
	out := make([]Range, 0, total)
	idx := make([]int, len(cellsPerDim))
	for {
		lo := make([]int, len(idx))
		hi := make([]int, len(idx))
		for i, c := range idx {
			w := schema.Sizes[i] / cellsPerDim[i]
			lo[i] = c * w
			hi[i] = lo[i] + w - 1
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		i := len(idx) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < cellsPerDim[i] {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return out, nil
		}
	}
}

// sortRanges orders ranges lexicographically by lower corner so partitions
// are reproducible independent of construction order.
func sortRanges(rs []Range) {
	slices.SortStableFunc(rs, func(a, b Range) int { return slices.Compare(a.Lo, b.Lo) })
}

// SumBatch builds the paper's evaluation workload: one SUM(attr) query per
// range.
func SumBatch(schema *dataset.Schema, ranges []Range, attr string) (Batch, error) {
	b := make(Batch, len(ranges))
	for i, r := range ranges {
		q, err := Sum(schema, r, attr)
		if err != nil {
			return nil, err
		}
		b[i] = q
	}
	return b, nil
}

// CountBatch builds one COUNT query per range.
func CountBatch(schema *dataset.Schema, ranges []Range) Batch {
	b := make(Batch, len(ranges))
	for i, r := range ranges {
		b[i] = Count(schema, r)
	}
	return b
}
