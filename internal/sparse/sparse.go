// Package sparse provides sparse-vector utilities shared by the query
// rewriter and the evaluation engine: flat-keyed sparse vectors over
// multi-dimensional domains and tensor-product enumeration of per-dimension
// coefficient lists.
//
// A coefficient's position in the transform of a d-dimensional array is a
// d-tuple of per-dimension layout positions; since the transformed array has
// exactly the shape of the data array, positions are identified with their
// row-major flat index, which serves as the storage key everywhere in this
// module.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Vector is a sparse vector keyed by flat domain index.
type Vector map[int]float64

// New returns an empty sparse vector.
func New() Vector { return make(Vector) }

// Add accumulates v into the receiver, dropping entries that cancel to
// exactly zero.
func (a Vector) Add(v Vector) {
	for k, x := range v {
		nv := a[k] + x
		if nv == 0 {
			delete(a, k)
		} else {
			a[k] = nv
		}
	}
}

// AddScaled accumulates c·v into the receiver.
func (a Vector) AddScaled(v Vector, c float64) {
	if c == 0 {
		return
	}
	for k, x := range v {
		nv := a[k] + c*x
		if nv == 0 {
			delete(a, k)
		} else {
			a[k] = nv
		}
	}
}

// Scale multiplies every entry by c in place.
func (a Vector) Scale(c float64) {
	if c == 0 {
		for k := range a {
			delete(a, k)
		}
		return
	}
	for k := range a {
		a[k] *= c
	}
}

// Dot returns the inner product ⟨a, b⟩, iterating over the smaller operand.
func (a Vector) Dot(b Vector) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for k, x := range a {
		if y, ok := b[k]; ok {
			s += x * y
		}
	}
	return s
}

// DotDense returns the inner product of a with a dense vector.
func (a Vector) DotDense(dense []float64) float64 {
	var s float64
	for k, x := range a {
		s += x * dense[k]
	}
	return s
}

// Norm2 returns the Euclidean norm of a.
func (a Vector) Norm2() float64 {
	var s float64
	for _, x := range a {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the sum of absolute values.
func (a Vector) Norm1() float64 {
	var s float64
	for _, x := range a {
		s += math.Abs(x)
	}
	return s
}

// Clone returns a deep copy of a.
func (a Vector) Clone() Vector {
	b := make(Vector, len(a))
	for k, v := range a {
		b[k] = v
	}
	return b
}

// Prune removes entries with |value| ≤ tol.
func (a Vector) Prune(tol float64) {
	for k, v := range a {
		if math.Abs(v) <= tol {
			delete(a, k)
		}
	}
}

// Keys returns the keys of a in ascending order.
func (a Vector) Keys() []int {
	keys := make([]int, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Dense materializes a as a dense slice of the given length. Keys outside
// [0, n) cause a panic.
func (a Vector) Dense(n int) []float64 {
	out := make([]float64, n)
	for k, v := range a {
		if k < 0 || k >= n {
			panic(fmt.Sprintf("sparse: key %d outside dense length %d", k, n))
		}
		out[k] = v
	}
	return out
}

// FromDense returns the sparse form of a dense slice, keeping entries with
// |value| > tol.
func FromDense(dense []float64, tol float64) Vector {
	v := New()
	for k, x := range dense {
		if math.Abs(x) > tol {
			v[k] = x
		}
	}
	return v
}

// Entry is one (key, value) pair of a sparse vector.
type Entry struct {
	Key int
	Val float64
}

// Entries returns the entries of a sorted by descending |value|, breaking
// ties by ascending key so the order is deterministic.
func (a Vector) Entries() []Entry {
	es := make([]Entry, 0, len(a))
	for k, v := range a {
		es = append(es, Entry{k, v})
	}
	sort.Slice(es, func(i, j int) bool {
		ai, aj := math.Abs(es[i].Val), math.Abs(es[j].Val)
		if ai != aj {
			return ai > aj
		}
		return es[i].Key < es[j].Key
	})
	return es
}

// Product is a scaled tensor product of per-dimension sparse factors over a
// row-major domain — scale·(f_0 ⊗ … ⊗ f_{d-1}) — with every factor
// flattened into ascending parallel key/value lists; Len is known before any
// pair is enumerated, so a caller can size the buffer Fill writes into.
//
// The number of pairs is the product of the factor sizes, which is the
// source of the O(polylog^d) query sparsity: each 1-D factor has O(L·log N)
// entries.
type Product struct {
	dims    []int
	factors []factor
	scale   float64
}

// factor is one dimension's nonzero entries in ascending key order.
type factor struct {
	keys []int
	vals []float64
}

// NewProduct validates and flattens scale·(factors[0] ⊗ …) over a domain
// of the given dimension sizes. Factors and dims must have equal length and
// every factor key must lie below its dimension size; an empty factor
// annihilates the product, which then has no pairs.
func NewProduct(scale float64, factors []Vector, dims []int) (Product, error) {
	if len(factors) != len(dims) {
		return Product{}, fmt.Errorf("sparse: %d factors for %d dims", len(factors), len(dims))
	}
	if len(factors) == 0 {
		return Product{}, fmt.Errorf("sparse: empty tensor product")
	}
	for i, f := range factors {
		if len(f) == 0 {
			return Product{}, nil // a zero factor annihilates the product
		}
		for k := range f {
			if k < 0 || k >= dims[i] {
				return Product{}, fmt.Errorf("sparse: factor %d key %d outside dim size %d", i, k, dims[i])
			}
		}
	}
	p := Product{dims: dims, factors: make([]factor, len(factors)), scale: scale}
	for i, f := range factors {
		p.factors[i] = flatten(f)
	}
	return p, nil
}

// flatten lists a vector's entries in ascending key order.
func flatten(a Vector) factor {
	f := factor{keys: a.Keys(), vals: make([]float64, len(a))}
	for j, k := range f.keys {
		f.vals[j] = a[k]
	}
	return f
}

// flatDims is the dimension list of a one-factor product over flat keys
// (read-only, shared).
var flatDims = []int{0}

// Product returns the vector as a one-factor product: its pairs, in
// ascending key order, with their values unchanged.
func (a Vector) Product() Product {
	if len(a) == 0 {
		return Product{}
	}
	// A single factor's keys are already flat: its row-major prefix is 0
	// whatever its dimension size.
	return Product{dims: flatDims, factors: []factor{flatten(a)}, scale: 1}
}

// Len returns the number of pairs the product holds.
func (p Product) Len() int {
	if len(p.factors) == 0 {
		return 0
	}
	size := 1
	for _, f := range p.factors {
		size *= len(f.keys)
	}
	return size
}

// level is one digit of Fill's odometer: the position in its factor, the
// flat-key prefix of the dimensions before it times its dimension size, and
// the value product of the factors before it.
type level struct {
	idx  int
	base int
	acc  float64
}

// Fill writes the product's pairs into dst, which must have room for exactly
// Len of them, in strictly ascending flat-key order: each factor is walked
// in ascending key order and every key lies below its dimension size, so the
// row-major flat index grows with the odometer. A pair's value is
// scale·(((1·v_0)·v_1)·…·v_{d-1}), the factors multiplied left to right.
//
// The odometer runs over the factors up to the last one with more than one
// key; the single-key factors after it (full-range dimensions, typically)
// form a fixed tail whose key offset is precomputed and whose values each
// pair multiplies in, in order — so the odometer carries once per row of
// that factor, not once per pair.
func (p Product) Fill(dst []Entry) {
	if len(dst) != p.Len() {
		panic(fmt.Sprintf("sparse: Fill into %d slots for %d pairs", len(dst), p.Len()))
	}
	if len(dst) == 0 {
		return
	}
	inner := len(p.factors) - 1
	for inner > 0 && len(p.factors[inner].keys) == 1 {
		inner--
	}
	var onStackTail [8]float64
	tail := onStackTail[:0]
	tailDims, tailKey := 1, 0
	for l, f := range p.factors[inner+1:] {
		dim := p.dims[inner+1+l]
		tailDims, tailKey = tailDims*dim, tailKey*dim+f.keys[0]
		tail = append(tail, f.vals[0])
	}
	var onStack [8]level
	levels := onStack[:0]
	if inner >= len(onStack) {
		levels = make([]level, 0, inner+1)
	}
	levels = levels[:inner+1]
	// restart puts levels from..inner back at their factors' first keys.
	restart := func(from int) {
		for l := from; l <= inner; l++ {
			if l == 0 {
				levels[0] = level{acc: 1}
				continue
			}
			prev, f := &levels[l-1], p.factors[l-1]
			levels[l] = level{
				base: (prev.base + f.keys[prev.idx]) * p.dims[l],
				acc:  prev.acc * f.vals[prev.idx],
			}
		}
	}
	restart(0)
	row := p.factors[inner]
	for n := 0; ; {
		lv := levels[inner]
		out := dst[n : n+len(row.keys)]
		vals := row.vals[:len(out)]
		for j, key := range row.keys[:len(out)] {
			v := lv.acc * vals[j]
			for _, t := range tail {
				v *= t
			}
			out[j] = Entry{Key: (lv.base+key)*tailDims + tailKey, Val: p.scale * v}
		}
		n += len(out)
		// Carry: the deepest outer factor with keys left advances and every
		// factor inside it restarts.
		l := inner - 1
		for l >= 0 && levels[l].idx+1 == len(p.factors[l].keys) {
			l--
		}
		if l < 0 {
			return
		}
		levels[l].idx++
		restart(l + 1)
	}
}

// TensorProduct enumerates the tensor product of per-dimension sparse
// factors over a row-major domain with the given dimension sizes: for every
// combination (k_0,…,k_{d-1}) of keys it yields the flat key and the product
// of values via emit, in strictly ascending flat-key order (see Fill).
// Factors and dims must have equal length.
func TensorProduct(factors []Vector, dims []int, emit func(key int, val float64)) error {
	p, err := NewProduct(1, factors, dims)
	if err != nil {
		return err
	}
	pairs := make([]Entry, p.Len())
	p.Fill(pairs)
	for _, e := range pairs {
		emit(e.Key, e.Val)
	}
	return nil
}

// TensorProductVector materializes the tensor product as a sparse vector,
// accumulating duplicate keys (which cannot occur for a single product but
// keeps the contract safe under composition).
func TensorProductVector(factors []Vector, dims []int) (Vector, error) {
	out := New()
	err := TensorProduct(factors, dims, func(key int, val float64) {
		if v := out[key] + val; v == 0 {
			delete(out, key)
		} else {
			out[key] = v
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TensorProductSize returns the number of pairs TensorProduct would emit.
func TensorProductSize(factors []Vector) int {
	size := 1
	for _, f := range factors {
		size *= len(f)
	}
	return size
}
