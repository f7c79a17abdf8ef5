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

// TensorProduct enumerates the tensor product of per-dimension sparse
// factors over a row-major domain with the given dimension sizes: for every
// combination (k_0,…,k_{d-1}) of keys it yields the flat key and the product
// of values via emit. Factors and dims must have equal length.
//
// Pairs arrive in strictly ascending flat-key order: each factor is walked in
// ascending key order and every key lies below its dimension size, so the
// row-major flat index grows with the odometer. Callers that need a sorted
// coefficient list (the plan merge in internal/core) get one without sorting.
//
// The number of emitted pairs is the product of the factor sizes, which is
// the source of the O(polylog^d) query sparsity: each 1-D factor has
// O(L·log N) entries.
func TensorProduct(factors []Vector, dims []int, emit func(key int, val float64)) error {
	if len(factors) != len(dims) {
		return fmt.Errorf("sparse: %d factors for %d dims", len(factors), len(dims))
	}
	if len(factors) == 0 {
		return fmt.Errorf("sparse: empty tensor product")
	}
	for i, f := range factors {
		if len(f) == 0 {
			return nil // a zero factor annihilates the product
		}
		for k := range f {
			if k < 0 || k >= dims[i] {
				return fmt.Errorf("sparse: factor %d key %d outside dim size %d", i, k, dims[i])
			}
		}
	}
	// Flatten every factor into ascending parallel key/value lists, so the
	// enumeration below reads slices, not maps.
	keyLists := make([][]int, len(factors))
	valLists := make([][]float64, len(factors))
	for i, f := range factors {
		keyLists[i] = f.Keys()
		valLists[i] = make([]float64, len(f))
		for j, k := range keyLists[i] {
			valLists[i][j] = f[k]
		}
	}
	last := len(factors) - 1
	var rec func(dim, keyAcc int, valAcc float64)
	rec = func(dim, keyAcc int, valAcc float64) {
		keys, vals := keyLists[dim], valLists[dim]
		base := keyAcc * dims[dim]
		if dim == last {
			for j, k := range keys {
				emit(base+k, valAcc*vals[j])
			}
			return
		}
		for j, k := range keys {
			rec(dim+1, base+k, valAcc*vals[j])
		}
	}
	rec(0, 0, 1)
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
