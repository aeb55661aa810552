package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 || m.Stride() != 5 {
		t.Fatalf("shape = %dx%d stride %d, want 3x5 stride 5", m.Rows(), m.Cols(), m.Stride())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	mustPanic(t, func() { NewDense(-1, 2) })
	mustPanic(t, func() { NewDense(2, -1) })
	mustPanic(t, func() { NewDensePadded(2, 2, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestPaddedStride(t *testing.T) {
	m := NewDensePadded(4, 10, 16)
	if m.Stride() != 16 {
		t.Fatalf("stride = %d, want 16", m.Stride())
	}
	if got := len(m.Data()); got != 64 {
		t.Fatalf("backing len = %d, want 64", got)
	}
	// Rows must not alias each other through padding.
	m.Row(0)[9] = 7
	if m.At(1, 0) != 0 {
		t.Fatal("padding leaked between rows")
	}
	// Exact multiple needs no padding.
	if NewDensePadded(2, 32, 16).Stride() != 32 {
		t.Fatal("exact multiple should not pad")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDensePadded(3, 7, 8)
	v := float32(0)
	for i := 0; i < 3; i++ {
		for j := 0; j < 7; j++ {
			m.Set(i, j, v)
			v++
		}
	}
	v = 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 7; j++ {
			if m.At(i, j) != v {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, m.At(i, j), v)
			}
			v++
		}
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	mustPanic(t, func() { m.At(2, 0) })
	mustPanic(t, func() { m.At(0, 2) })
	mustPanic(t, func() { m.At(-1, 0) })
	mustPanic(t, func() { m.Set(0, -1, 1) })
	mustPanic(t, func() { m.Row(5) })
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	if FromRows(nil).Rows() != 0 {
		t.Fatal("nil rows should produce empty matrix")
	}
	mustPanic(t, func() { FromRows([][]float32{{1}, {1, 2}}) })
}

func TestRowSharesStorage(t *testing.T) {
	m := NewDense(2, 3)
	r := m.Row(1)
	r[2] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("Row must alias matrix storage")
	}
	if len(r) != 3 || cap(r) != 3 {
		t.Fatalf("row len/cap = %d/%d, want 3/3", len(r), cap(r))
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
	if !m.Equal(m.Clone(), 0) {
		t.Fatal("clone should equal original")
	}
}

func TestFillApply(t *testing.T) {
	m := NewDensePadded(2, 3, 8)
	m.Fill(2)
	m.Apply(func(x float32) float32 { return x * x })
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 4 {
				t.Fatalf("At(%d,%d) = %v, want 4", i, j, m.At(i, j))
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{1, 2.05}, {3, 4}})
	if a.Equal(b, 0.01) {
		t.Fatal("should differ at tol 0.01")
	}
	if !a.Equal(b, 0.1) {
		t.Fatal("should match at tol 0.1")
	}
	if a.Equal(NewDense(2, 3), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Double transpose is identity.
	if !tr.Transpose().Equal(m, 0) {
		t.Fatal("double transpose != identity")
	}
}

func TestRowMinMax(t *testing.T) {
	m := FromRows([][]float32{{3, -1, 7, 2}})
	if m.RowMin(0) != -1 || m.RowMax(0) != 7 {
		t.Fatalf("min/max = %v/%v, want -1/7", m.RowMin(0), m.RowMax(0))
	}
}

func TestRankNormalizeRowBasic(t *testing.T) {
	m := FromRows([][]float32{{30, 10, 20, 40}})
	m.RankNormalizeRow(0)
	want := []float32{2.5 / 4, 0.5 / 4, 1.5 / 4, 3.5 / 4}
	for j, w := range want {
		if d := m.At(0, j) - w; d > 1e-6 || d < -1e-6 {
			t.Fatalf("rank[%d] = %v, want %v", j, m.At(0, j), w)
		}
	}
}

func TestRankNormalizeTies(t *testing.T) {
	m := FromRows([][]float32{{5, 5, 5, 1}})
	m.RankNormalizeRow(0)
	// 1 gets rank 0 -> 0.5/4; the three 5s get average rank 2 -> 2.5/4.
	if got := m.At(0, 3); math.Abs(float64(got-0.125)) > 1e-6 {
		t.Fatalf("smallest = %v, want 0.125", got)
	}
	for j := 0; j < 3; j++ {
		if got := m.At(0, j); math.Abs(float64(got-0.625)) > 1e-6 {
			t.Fatalf("tie[%d] = %v, want 0.625", j, got)
		}
	}
}

func TestRankNormalizeProperties(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				vals[i] = 0
			}
		}
		m := FromRows([][]float32{vals})
		orig := append([]float32(nil), vals...)
		m.RankNormalizeRow(0)
		r := m.Row(0)
		// All outputs strictly in (0,1).
		for _, v := range r {
			if v <= 0 || v >= 1 {
				return false
			}
		}
		// Order preserved: orig[i] < orig[j] => r[i] < r[j].
		for i := range orig {
			for j := range orig {
				if orig[i] < orig[j] && r[i] >= r[j] {
					return false
				}
				if orig[i] == orig[j] && r[i] != r[j] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRankNormalizeDistinctIsUniform(t *testing.T) {
	// With n distinct values the ranks are a permutation of
	// (i+0.5)/n — verify as sorted sequence.
	rng := rand.New(rand.NewSource(7))
	n := 100
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = rng.Float32() * 1000
	}
	m := FromRows([][]float32{vals})
	m.RankNormalizeRow(0)
	got := append([]float32(nil), m.Row(0)...)
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	for i, v := range got {
		want := (float32(i) + 0.5) / float32(n)
		if math.Abs(float64(v-want)) > 1e-5 {
			t.Fatalf("sorted rank[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestMinMaxNormalize(t *testing.T) {
	m := FromRows([][]float32{{2, 4, 6}, {5, 5, 5}})
	m.MinMaxNormalize()
	want0 := []float32{0, 0.5, 1}
	for j, w := range want0 {
		if m.At(0, j) != w {
			t.Fatalf("row0[%d] = %v, want %v", j, m.At(0, j), w)
		}
	}
	for j := 0; j < 3; j++ {
		if m.At(1, j) != 0.5 {
			t.Fatalf("constant row should map to 0.5, got %v", m.At(1, j))
		}
	}
}

func TestIsFinite(t *testing.T) {
	m := NewDense(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix should be finite")
	}
	m.Set(1, 1, float32(math.NaN()))
	if m.IsFinite() {
		t.Fatal("NaN should be detected")
	}
	m.Set(1, 1, float32(math.Inf(1)))
	if m.IsFinite() {
		t.Fatal("Inf should be detected")
	}
}

func TestDense64(t *testing.T) {
	m := NewDense64(2, 3)
	m.Set(1, 2, 3.25)
	if m.At(1, 2) != 3.25 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
	d32 := m.ToDense32()
	if d32.At(1, 2) != 3.25 || d32.At(1, 0) != 9 {
		t.Fatal("ToDense32 mismatch")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float32{{1, 2}, {3, 4}})
	if s := small.String(); len(s) < 10 {
		t.Fatalf("small String too short: %q", s)
	}
	big := NewDense(100, 100)
	if s := big.String(); s != "Dense 100x100" {
		t.Fatalf("big String = %q", s)
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	sub := m.SelectRows([]int{3, 1})
	if sub.Rows() != 2 || sub.Cols() != 2 {
		t.Fatalf("shape %dx%d", sub.Rows(), sub.Cols())
	}
	if sub.At(0, 0) != 7 || sub.At(1, 1) != 4 {
		t.Fatalf("values %v/%v", sub.At(0, 0), sub.At(1, 1))
	}
	// Copy, not view.
	sub.Set(0, 0, 99)
	if m.At(3, 0) != 7 {
		t.Fatal("SelectRows must copy")
	}
	if m.SelectRows(nil).Rows() != 0 {
		t.Fatal("empty selection")
	}
	mustPanic(t, func() { m.SelectRows([]int{4}) })
	mustPanic(t, func() { m.SelectRows([]int{-1}) })
}

// TestRankNormalizeMatchesStableSort: the integer-key sort ranks every
// row exactly as a stable comparison sort does, bit for bit — rows with
// ties, signed zeros, subnormals, infinities and magnitudes across the
// float32 range, and rows holding NaN, across the insertion-sort block
// boundary (20) and the paper's sample counts.
func TestRankNormalizeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 1e-45, -1e-45,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32}
	for _, n := range []int{1, 2, 19, 20, 21, 41, 128, 337} {
		for trial := 0; trial < 50; trial++ {
			r := make([]float32, n)
			for j := range r {
				switch rng.Intn(4) {
				case 0:
					r[j] = specials[rng.Intn(len(specials))]
				case 1:
					r[j] = float32(rng.Intn(3))
				default:
					r[j] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
				}
				if trial%5 == 0 && rng.Intn(7) == 0 {
					r[j] = float32(math.NaN())
				}
			}
			got, want := append([]float32(nil), r...), append([]float32(nil), r...)
			RankNormalizeValues(got)
			rankNormalizeStable(want)
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("n=%d trial %d: position %d ranks %v, stable sort %v (row %v)", n, trial, j, got[j], want[j], r)
				}
			}
		}
	}
}
