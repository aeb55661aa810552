// Package mat provides dense row-major matrices of float32 and float64
// values tuned for the access patterns of the TINGe pipeline: long
// contiguous rows (one row per gene, one column per experiment), tiled
// views over pair blocks, and cheap rank/normalization transforms.
//
// float32 is the primary element type because the Xeon Phi kernels the
// paper describes operate on 16-lane single-precision vectors; float64
// variants exist for validation against analytic results.
package mat

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dense is a dense row-major matrix of float32 values.
//
// The zero value is an empty matrix; use NewDense to allocate.
type Dense struct {
	rows, cols int
	// stride is the distance in elements between the starts of
	// consecutive rows. It may exceed cols for padded matrices so that
	// rows stay lane-aligned.
	stride int
	data   []float32
}

// NewDense allocates a rows×cols matrix with all elements zero.
// It panics if rows or cols is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, stride: cols, data: make([]float32, rows*cols)}
}

// NewDensePadded allocates a rows×cols matrix whose row stride is rounded
// up to a multiple of lane elements, mimicking the cache-line/vector
// alignment the paper's kernels require. lane must be positive.
func NewDensePadded(rows, cols, lane int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	if lane <= 0 {
		panic("mat: non-positive lane")
	}
	stride := (cols + lane - 1) / lane * lane
	return &Dense{rows: rows, cols: cols, stride: stride, data: make([]float32, rows*stride)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data. It panics if the rows are ragged.
func FromRows(rows [][]float32) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d want %d", i, len(r), m.cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Stride returns the element distance between row starts.
func (m *Dense) Stride() int { return m.stride }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float32 {
	m.check(i, j)
	return m.data[i*m.stride+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float32) {
	m.check(i, j)
	m.data[i*m.stride+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns the i-th row as a mutable slice of length Cols sharing the
// matrix's storage.
func (m *Dense) Row(i int) []float32 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	start := i * m.stride
	return m.data[start : start+m.cols : start+m.cols]
}

// Data returns the backing slice, including any padding. Mutating it
// mutates the matrix.
func (m *Dense) Data() []float32 { return m.data }

// Clone returns a deep copy of the matrix (padding preserved).
func (m *Dense) Clone() *Dense {
	out := &Dense{rows: m.rows, cols: m.cols, stride: m.stride, data: make([]float32, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Fill sets every element (not padding) to v.
func (m *Dense) Fill(v float32) {
	for i := 0; i < m.rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] = v
		}
	}
}

// Apply replaces each element x with f(x).
func (m *Dense) Apply(f func(float32) float32) {
	for i := 0; i < m.rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			r[j] = f(v)
		}
	}
}

// Equal reports whether the two matrices have identical shape and
// elements within tol (absolute difference).
func (m *Dense) Equal(o *Dense, tol float32) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		a, b := m.Row(i), o.Row(i)
		for j := range a {
			d := a[j] - b[j]
			if d < 0 {
				d = -d
			}
			if d > tol {
				return false
			}
		}
	}
	return true
}

// Transpose returns a new matrix that is the transpose of m. Padding is
// not preserved.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			t.data[j*t.stride+i] = v
		}
	}
	return t
}

// RowMin and RowMax return the extrema of row i. They panic on an empty
// row.
func (m *Dense) RowMin(i int) float32 {
	r := m.Row(i)
	if len(r) == 0 {
		panic("mat: RowMin of empty row")
	}
	min := r[0]
	for _, v := range r[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// RowMax returns the maximum of row i.
func (m *Dense) RowMax(i int) float32 {
	r := m.Row(i)
	if len(r) == 0 {
		panic("mat: RowMax of empty row")
	}
	max := r[0]
	for _, v := range r[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// RankNormalizeRow replaces row i with its rank transform mapped into the
// open interval (0,1): the s-th smallest value becomes (rank+0.5)/n where
// ties receive the average of their ranks. This is the normalization
// TINGe applies before B-spline MI estimation so that the estimator is
// invariant to monotone transformations of the raw expression values.
func (m *Dense) RankNormalizeRow(i int) {
	RankNormalizeValues(m.Row(i))
}

// RankNormalizeValues is the slice-level rank transform behind
// RankNormalizeRow. The out-of-core scan normalizes gene rows one tile
// at a time as they stream back from the spill store; sharing the exact
// routine (same order, same tie averaging, same float32 rounding) with
// the resident path is what makes the two engines bit-identical.
//
// It sorts integer keys: each value's float32 bits mapped to an
// order-preserving uint32, above its position. A value's rank depends
// only on which positions tie with it and where their group lands, not
// on the order inside the group, so this equals a stable sort by value
// (and runs about 2.5× faster at m = 128–337). NaN compares unordered
// with every value, so a row holding one keeps the stable comparison
// sort whose order has always defined such rows.
func RankNormalizeValues(r []float32) {
	n := len(r)
	if n == 0 {
		return
	}
	keys := make([]uint64, n)
	for j, v := range r {
		if v != v {
			rankNormalizeStable(r)
			return
		}
		b := math.Float32bits(v)
		if b>>31 != 0 {
			b = ^b // negative: a larger magnitude sorts first
		} else {
			b |= 1 << 31
		}
		keys[j] = uint64(b)<<32 | uint64(j)
	}
	slices.Sort(keys)
	assignRanks(r, func(t int) int { return int(uint32(keys[t])) })
}

// rankNormalizeStable is RankNormalizeValues by a stable comparison
// sort, for rows holding NaN.
func rankNormalizeStable(r []float32) {
	idx := make([]int, len(r))
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] < r[idx[b]] })
	assignRanks(r, func(t int) int { return idx[t] })
}

// assignRanks replaces r with its rank transform, given the position
// order(t) of the t-th smallest value.
func assignRanks(r []float32, order func(t int) int) {
	n := len(r)
	ranks := make([]float64, n)
	for s := 0; s < n; {
		e := s + 1
		for e < n && r[order(e)] == r[order(s)] {
			e++
		}
		// Average rank for the tie group [s,e).
		avg := (float64(s) + float64(e-1)) / 2
		for t := s; t < e; t++ {
			ranks[order(t)] = avg
		}
		s = e
	}
	for j := 0; j < n; j++ {
		r[j] = float32((ranks[j] + 0.5) / float64(n))
	}
}

// RankNormalize rank-normalizes every row. See RankNormalizeRow.
func (m *Dense) RankNormalize() {
	for i := 0; i < m.rows; i++ {
		m.RankNormalizeRow(i)
	}
}

// MinMaxNormalizeRow linearly rescales row i into [0,1]. Constant rows
// become all 0.5.
func (m *Dense) MinMaxNormalizeRow(i int) {
	r := m.Row(i)
	if len(r) == 0 {
		return
	}
	lo, hi := m.RowMin(i), m.RowMax(i)
	if hi == lo {
		for j := range r {
			r[j] = 0.5
		}
		return
	}
	inv := 1 / (hi - lo)
	for j, v := range r {
		r[j] = (v - lo) * inv
	}
}

// MinMaxNormalize rescales every row into [0,1].
func (m *Dense) MinMaxNormalize() {
	for i := 0; i < m.rows; i++ {
		m.MinMaxNormalizeRow(i)
	}
}

// String renders small matrices for debugging; large matrices are
// abbreviated.
func (m *Dense) String() string {
	const maxShow = 8
	s := fmt.Sprintf("Dense %dx%d", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return s
	}
	for i := 0; i < m.rows; i++ {
		s += "\n"
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("% 8.4f", m.At(i, j))
		}
	}
	return s
}

// Dense64 is a dense row-major matrix of float64 values used by the
// validation paths (analytic MI, double-precision reference kernels).
type Dense64 struct {
	rows, cols int
	data       []float64
}

// NewDense64 allocates a rows×cols float64 matrix of zeros.
func NewDense64(rows, cols int) *Dense64 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense64{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense64) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense64) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense64) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns v to the element at (i, j).
func (m *Dense64) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns the i-th row sharing storage.
func (m *Dense64) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// ToDense32 converts to a float32 Dense, rounding each element.
func (m *Dense64) ToDense32() *Dense {
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = float32(m.data[i])
	}
	return out
}

// IsFinite reports whether every element of m is finite (no NaN/Inf).
func (m *Dense) IsFinite() bool {
	for i := 0; i < m.rows; i++ {
		for _, v := range m.Row(i) {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

// SelectRows returns a new matrix holding copies of the given rows in
// order (duplicates allowed). It panics on out-of-range indices.
func (m *Dense) SelectRows(rows []int) *Dense {
	out := NewDense(len(rows), m.cols)
	for k, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("mat: SelectRows index %d out of range %d", r, m.rows))
		}
		copy(out.Row(k), m.Row(r))
	}
	return out
}
