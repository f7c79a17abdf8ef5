package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndAddScaled(t *testing.T) {
	a := Vector{1: 2, 2: 3}
	a.Add(Vector{2: -3, 3: 1})
	if len(a) != 2 || a[1] != 2 || a[3] != 1 {
		t.Fatalf("Add = %v", a)
	}
	if _, ok := a[2]; ok {
		t.Fatal("cancelled entry not deleted")
	}
	a.AddScaled(Vector{1: 1}, 0)
	if a[1] != 2 {
		t.Fatal("AddScaled with c=0 changed vector")
	}
	a.AddScaled(Vector{1: 1, 5: 2}, 3)
	if a[1] != 5 || a[5] != 6 {
		t.Fatalf("AddScaled = %v", a)
	}
}

func TestScale(t *testing.T) {
	a := Vector{1: 2, 2: 4}
	a.Scale(0.5)
	if a[1] != 1 || a[2] != 2 {
		t.Fatalf("Scale = %v", a)
	}
	a.Scale(0)
	if len(a) != 0 {
		t.Fatal("Scale(0) should empty the vector")
	}
}

func TestDotSymmetricAndSparseAware(t *testing.T) {
	a := Vector{1: 2, 5: 3, 9: -1}
	b := Vector{5: 4, 9: 2}
	want := 3.0*4 + (-1)*2
	if got := a.Dot(b); got != want {
		t.Fatalf("Dot = %g, want %g", got, want)
	}
	if a.Dot(b) != b.Dot(a) {
		t.Fatal("Dot not symmetric")
	}
	if a.Dot(New()) != 0 {
		t.Fatal("Dot with empty should be 0")
	}
}

func TestDotDense(t *testing.T) {
	a := Vector{0: 1, 3: 2}
	dense := []float64{10, 0, 0, 5}
	if got := a.DotDense(dense); got != 20 {
		t.Fatalf("DotDense = %g", got)
	}
}

func TestNorms(t *testing.T) {
	a := Vector{1: 3, 2: -4}
	if a.Norm2() != 5 {
		t.Fatalf("Norm2 = %g", a.Norm2())
	}
	if a.Norm1() != 7 {
		t.Fatalf("Norm1 = %g", a.Norm1())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vector{1: 1}
	b := a.Clone()
	b[1] = 99
	b[2] = 5
	if a[1] != 1 || len(a) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestPrune(t *testing.T) {
	a := Vector{1: 1e-12, 2: 0.5, 3: -1e-15}
	a.Prune(1e-9)
	if len(a) != 1 || a[2] != 0.5 {
		t.Fatalf("Prune = %v", a)
	}
}

func TestKeysSorted(t *testing.T) {
	a := Vector{5: 1, 1: 1, 3: 1}
	keys := a.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 5 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	a := Vector{0: 1, 4: -2}
	d := a.Dense(6)
	back := FromDense(d, 0)
	if len(back) != 2 || back[0] != 1 || back[4] != -2 {
		t.Fatalf("roundtrip = %v", back)
	}
}

func TestDensePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vector{7: 1}.Dense(4)
}

func TestEntriesOrdering(t *testing.T) {
	a := Vector{1: -5, 2: 5, 3: 1}
	es := a.Entries()
	if len(es) != 3 {
		t.Fatalf("Entries len = %d", len(es))
	}
	// |−5| == |5|: tie broken by key, so key 1 first.
	if es[0].Key != 1 || es[1].Key != 2 || es[2].Key != 3 {
		t.Fatalf("Entries = %v", es)
	}
}

func TestTensorProduct2D(t *testing.T) {
	f0 := Vector{0: 2, 3: -1}
	f1 := Vector{1: 10}
	dims := []int{4, 8}
	got, err := TensorProductVector([]Vector{f0, f1}, dims)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{0*8 + 1: 20, 3*8 + 1: -10}
	if len(got) != len(want) {
		t.Fatalf("TensorProduct = %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %g, want %g", k, got[k], v)
		}
	}
}

// TestTensorProductAscending pins the enumeration contract the plan merge
// builds on: flat keys arrive strictly ascending, and every value is the
// left-to-right product of the factors' map entries, bit for bit.
func TestTensorProductAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(5)
		dims := make([]int, d)
		factors := make([]Vector, d)
		for i := range dims {
			dims[i] = 1 + rng.Intn(9)
			factors[i] = New()
			for n := 1 + rng.Intn(dims[i]); n > 0; n-- {
				factors[i][rng.Intn(dims[i])] = rng.NormFloat64()
			}
		}
		emitted, last := 0, -1
		coords := make([]int, d)
		err := TensorProduct(factors, dims, func(key int, val float64) {
			if key <= last {
				t.Fatalf("trial %d: key %d after %d", trial, key, last)
			}
			last = key
			emitted++
			rest, want := key, 1.0
			for i := d - 1; i >= 0; i-- {
				coords[i] = rest % dims[i]
				rest /= dims[i]
			}
			for i, c := range coords {
				want *= factors[i][c]
			}
			if val != want {
				t.Fatalf("trial %d key %d: value %v, want %v", trial, key, val, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if emitted != TensorProductSize(factors) {
			t.Fatalf("trial %d: %d pairs, want %d", trial, emitted, TensorProductSize(factors))
		}
	}
}

func TestTensorProductZeroFactor(t *testing.T) {
	got, err := TensorProductVector([]Vector{{1: 2}, {}}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("zero factor should annihilate, got %v", got)
	}
}

func TestTensorProductErrors(t *testing.T) {
	if _, err := TensorProductVector([]Vector{{1: 1}}, []int{4, 4}); err == nil {
		t.Error("mismatched factors/dims should fail")
	}
	if _, err := TensorProductVector(nil, nil); err == nil {
		t.Error("empty product should fail")
	}
	if _, err := TensorProductVector([]Vector{{9: 1}}, []int{4}); err == nil {
		t.Error("out-of-range key should fail")
	}
}

func TestTensorProductSize(t *testing.T) {
	if got := TensorProductSize([]Vector{{1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}}); got != 6 {
		t.Fatalf("size = %d", got)
	}
}

// Property: the tensor product agrees with the dense outer product.
func TestQuickTensorProductMatchesDense(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		dims := make([]int, d)
		factors := make([]Vector, d)
		for i := range dims {
			dims[i] = 1 << (1 + rng.Intn(3))
			factors[i] = New()
			for j := 0; j < 1+rng.Intn(3); j++ {
				factors[i][rng.Intn(dims[i])] = rng.NormFloat64()
			}
		}
		got, err := TensorProductVector(factors, dims)
		if err != nil {
			return false
		}
		// Dense check.
		total := 1
		for _, n := range dims {
			total *= n
		}
		coords := make([]int, d)
		for idx := 0; idx < total; idx++ {
			rem := idx
			for i := d - 1; i >= 0; i-- {
				coords[i] = rem % dims[i]
				rem /= dims[i]
			}
			want := 1.0
			for i := range coords {
				want *= factors[i][coords[i]]
			}
			if math.Abs(got[idx]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Dot is bilinear.
func TestQuickDotBilinear(t *testing.T) {
	check := func(seed int64, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		c = math.Mod(c, 10)
		rng := rand.New(rand.NewSource(seed))
		randVec := func() Vector {
			v := New()
			for i := 0; i < rng.Intn(6); i++ {
				v[rng.Intn(10)] = rng.NormFloat64()
			}
			return v
		}
		a, b, x := randVec(), randVec(), randVec()
		sum := a.Clone()
		sum.AddScaled(b, c)
		left := sum.Dot(x)
		right := a.Dot(x) + c*b.Dot(x)
		return math.Abs(left-right) < 1e-9*(1+math.Abs(left))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	a, v := New(), New()
	for i := 0; i < 1000; i++ {
		a[rng.Intn(100000)] = rng.NormFloat64()
		v[rng.Intn(100000)] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Dot(v)
	}
}

func BenchmarkTensorProduct3D(b *testing.B) {
	rng := rand.New(rand.NewSource(59))
	dims := []int{64, 64, 64}
	factors := make([]Vector, 3)
	for i := range factors {
		factors[i] = New()
		for j := 0; j < 20; j++ {
			factors[i][rng.Intn(64)] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := TensorProduct(factors, dims, func(int, float64) { n++ }); err != nil {
			b.Fatal(err)
		}
	}
}
