package wavelet

import (
	"fmt"
	"math"
	"slices"
)

// ForwardNDSparse computes the standard-decomposition transform of a sparse
// array without ever materializing the dense domain: the input is a map from
// row-major flat index to value, and the result is the sparse map of nonzero
// transform coefficients in the same canonical layout ForwardND produces.
//
// The cost is proportional to the number of nonzeros times the fill-in,
// which compounds per dimension to roughly (L·log n)^d in the worst case.
// Choose accordingly: with Haar ((log n)^d fill-in) the sparse path turns
// billion-cell domains tractable for record counts in the millions, while
// long filters in high dimension can generate more intermediate nonzeros
// than the dense transform touches cells — prefer ForwardND when the dense
// array fits in memory and the filter is long.
func (f *Filter) ForwardNDSparse(cells map[int]float64, dims []int) (map[int]float64, error) {
	total, err := CheckDims(dims)
	if err != nil {
		return nil, err
	}
	for k := range cells {
		if k < 0 || k >= total {
			return nil, fmt.Errorf("wavelet: sparse key %d outside domain of %d cells", k, total)
		}
	}
	d := len(dims)
	strides := make([]int, d)
	strides[d-1] = 1
	for i := d - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * dims[i+1]
	}
	cur := make(map[int]float64, len(cells))
	for k, v := range cells {
		if v != 0 {
			cur[k] = v
		}
	}
	for axis := 0; axis < d; axis++ {
		n := dims[axis]
		if n == 1 {
			continue
		}
		stride := strides[axis]
		// Group nonzeros by line: lineBase = key - coord*stride.
		lines := make(map[int]map[int]float64)
		for k, v := range cur {
			coord := (k / stride) % n
			base := k - coord*stride
			line, ok := lines[base]
			if !ok {
				line = make(map[int]float64)
				lines[base] = line
			}
			line[coord] = v
		}
		next := make(map[int]float64, len(cur))
		for base, line := range lines {
			f.forwardSparse1D(line, n)
			for pos, v := range line {
				if v != 0 {
					next[base+pos*stride] = v
				}
			}
		}
		cur = next
	}
	return cur, nil
}

// forwardSparse1D applies the full 1-D cascade to a sparse signal in place
// (map from position to value), producing the canonical pyramid layout.
// Values whose magnitude falls below a tiny relative threshold are dropped
// to bound fill-in from exact cancellations.
func (f *Filter) forwardSparse1D(s map[int]float64, n int) {
	L := f.Len()
	var scale float64
	for _, v := range s {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		for k := range s {
			delete(s, k)
		}
		return
	}
	drop := 1e-14 * scale
	// Current approximation band, local positions.
	approx := make(map[int]float64, len(s))
	for k, v := range s {
		approx[k] = v
		delete(s, k)
	}
	keys := make([]int, 0, len(approx))
	for m := n; m >= 2; m /= 2 {
		m2 := m / 2
		nextA := make(map[int]float64, len(approx))
		detail := make(map[int]float64, len(approx))
		// Accumulate in ascending position order, so the sums — and the
		// transform — do not depend on map iteration order.
		keys = keys[:0]
		for k := range approx {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			v := approx[k]
			// s[k] feeds outputs j with 2j+t = k (mod m) for tap t.
			for t := 0; t < L; t++ {
				idx := k - t
				if idx%2 != 0 {
					continue
				}
				j := mod(idx/2, m2)
				nextA[j] += f.H[t] * v
				detail[j] += f.G[t] * v
			}
		}
		for j, v := range detail {
			if math.Abs(v) > drop {
				s[m2+j] += v
			}
		}
		for j, v := range nextA {
			if math.Abs(v) <= drop {
				delete(nextA, j)
			}
		}
		approx = nextA
	}
	if v, ok := approx[0]; ok && math.Abs(v) > drop {
		s[0] = v
	}
}
