// Package tensor implements the dense linear algebra needed by the neural
// network and crossbar simulation layers: row-major float64 matrices,
// matrix products, element-wise kernels and the im2col transformation used
// by convolution layers.
//
// The package favours predictable, allocation-explicit APIs: operations that
// can reuse a destination take it as the receiver or first argument, and the
// few allocating convenience wrappers are named with a trailing "New" or
// documented as allocating.
//
// Summation order is part of the API, because the goldens pin results to
// the last bit: every element of a matrix product is summed from zero with
// k ascending, and MatMul and MatMulTransA skip the terms whose a entry is
// zero (MatMulTransB skips none). Col2Im adds the contributions to an image
// element in patch order. Neither the worker count nor the kernels'
// register blocking (four terms or four outputs at a time) changes that
// order, so every path gives byte-identical results; parallel_test.go
// checks the products against reference loops written in this order, at
// tolerance 0 and with 1 and 8 workers.
//
// The matrix products and Im2Col are parallelized over disjoint blocks of
// the destination via internal/par. The partition only decides which
// goroutine owns a block, never the summation order inside an element.
package tensor

import (
	"fmt"
	"math"

	"rramft/internal/par"
)

// Dense is a row-major matrix of float64 values.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// EnsureShape returns a rows×cols matrix, reusing m's backing array when
// it is large enough. A nil m allocates fresh; otherwise m is reshaped in
// place (growing Data only when capacity is insufficient) and returned.
// The contents of the returned matrix are unspecified — callers must fully
// overwrite it. This is the scratch-buffer primitive behind the
// allocation-free hot paths (DESIGN.md §7): steady-state shapes hit the
// reuse path and never allocate.
func EnsureShape(m *Dense, rows, cols int) *Dense {
	if m == nil {
		return NewDense(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// FromSlice wraps data as a rows×cols matrix. The slice is used directly,
// not copied. It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row r, column c.
func (m *Dense) At(r, c int) float64 {
	return m.Data[r*m.Cols+c]
}

// Set assigns the element at row r, column c.
func (m *Dense) Set(r, c int, v float64) {
	m.Data[r*m.Cols+c] = v
}

// Row returns the r-th row as a subslice (no copy).
func (m *Dense) Row(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. It panics on shape mismatch.
func (m *Dense) CopyFrom(src *Dense) {
	m.mustSameShape(src)
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Shape returns (rows, cols).
func (m *Dense) Shape() (int, int) { return m.Rows, m.Cols }

// SameShape reports whether m and o have identical dimensions.
func (m *Dense) SameShape(o *Dense) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

func (m *Dense) mustSameShape(o *Dense) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String renders a compact description, not the full contents.
func (m *Dense) String() string {
	return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
}

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from a
// and b. It panics on dimension mismatch.
func MatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul inner dim %d vs %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	// Row-blocked: each worker owns a contiguous band of dst rows. Every
	// dst row is computed with the same k-ascending accumulation whatever
	// the partition, so the output matches the serial path exactly. The
	// serial path skips par.For so the closure never materializes — the
	// single-worker matmul is allocation-free.
	g := blockGrain(a.Cols * b.Cols)
	if par.Serial(a.Rows, g) {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	par.For(a.Rows, g, func(i0, i1 int) {
		matMulRows(dst, a, b, i0, i1)
	})
}

// matMulRows computes dst rows [i0, i1) of a·b in ikj order: streams
// through b and dst rows for cache locality. The nonzero a entries of a
// row are taken four at a time (addRows4), so each dst element is loaded
// and stored once per four terms instead of once per term.
func matMulRows(dst, a, b *Dense, i0, i1 int) {
	n := b.Cols
	for i := i0; i < i1; i++ {
		drow := dst.Row(i)
		clear(drow)
		var ak [4]float64
		var bk [4][]float64
		m := 0
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			ak[m], bk[m] = aik, b.Data[k*n:k*n+n]
			if m++; m == 4 {
				addRows4(drow, ak[0], ak[1], ak[2], ak[3], bk[0], bk[1], bk[2], bk[3])
				m = 0
			}
		}
		addRowsTail(drow, ak[:m], bk[:m])
	}
}

// addRows4 computes d[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j],
// adding the four terms to d[j] one at a time, left to right — the same
// rounding as four separate d += a·b passes.
func addRows4(d []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j, v := range d {
		d[j] = v + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// addRowsTail applies the fewer than four terms left over after addRows4,
// in order.
func addRowsTail(d []float64, a []float64, b [][]float64) {
	for t, at := range a {
		bt := b[t][:len(d)]
		for j := range d {
			d[j] += at * bt[j]
		}
	}
}

// blockGrain returns how many destination rows (or columns) one parallel
// block should cover so that a block amortizes its dispatch: unitWork is
// the number of multiply-adds behind a single row/column of output.
func blockGrain(unitWork int) int {
	const targetFlops = 32 << 10
	if unitWork <= 0 {
		return 1
	}
	g := targetFlops / unitWork
	if g < 1 {
		g = 1
	}
	return g
}

// MatMulNew allocates and returns a·b.
func MatMulNew(a, b *Dense) *Dense {
	dst := NewDense(a.Rows, b.Cols)
	MatMul(dst, a, b)
	return dst
}

// MatMulTransA computes dst = aᵀ·b where a is passed untransposed.
// dst must be a.Cols×b.Cols.
func MatMulTransA(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTA inner dim %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	// Column-blocked: each worker owns a disjoint slice of every dst
	// row. Accumulation per element stays k-ascending.
	g := blockGrain(a.Rows * a.Cols)
	if par.Serial(b.Cols, g) {
		matMulTransACols(dst, a, b, 0, b.Cols)
		return
	}
	par.For(b.Cols, g, func(j0, j1 int) {
		matMulTransACols(dst, a, b, j0, j1)
	})
}

// matMulTransACols computes dst columns [j0, j1) of aᵀ·b. Each dst row i
// is finished before the next starts, gathering the nonzero entries of
// a's column i four at a time as matMulRows does.
func matMulTransACols(dst, a, b *Dense, j0, j1 int) {
	n := b.Cols
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Row(i)[j0:j1]
		clear(drow)
		var ak [4]float64
		var bk [4][]float64
		m := 0
		for k := 0; k < a.Rows; k++ {
			aki := a.Data[k*a.Cols+i]
			if aki == 0 {
				continue
			}
			ak[m], bk[m] = aki, b.Data[k*n+j0:k*n+j1]
			if m++; m == 4 {
				addRows4(drow, ak[0], ak[1], ak[2], ak[3], bk[0], bk[1], bk[2], bk[3])
				m = 0
			}
		}
		addRowsTail(drow, ak[:m], bk[:m])
	}
}

// MatMulTransB computes dst = a·bᵀ where b is passed untransposed.
// dst must be a.Rows×b.Rows.
func MatMulTransB(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTB inner dim %d vs %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	// Row-blocked: every dst element is an independent dot product.
	g := blockGrain(a.Cols * b.Rows)
	if par.Serial(a.Rows, g) {
		matMulTransBRows(dst, a, b, 0, a.Rows)
		return
	}
	par.For(a.Rows, g, func(i0, i1 int) {
		matMulTransBRows(dst, a, b, i0, i1)
	})
}

// matMulTransBRows computes dst rows [i0, i1) of a·bᵀ, four dot
// products at a time: one pass over a's row feeds four accumulators, one
// per b row, each summed k-ascending from zero.
func matMulTransBRows(dst, a, b *Dense, i0, i1 int) {
	kk := a.Cols
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= len(drow); j += 4 {
			b0 := b.Data[j*kk : j*kk+kk][:len(arow)]
			b1 := b.Data[(j+1)*kk : (j+1)*kk+kk][:len(arow)]
			b2 := b.Data[(j+2)*kk : (j+2)*kk+kk][:len(arow)]
			b3 := b.Data[(j+3)*kk : (j+3)*kk+kk][:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < len(drow); j++ {
			brow := b.Data[j*kk : j*kk+kk][:len(arow)]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// Transpose returns a newly allocated mᵀ.
func Transpose(m *Dense) *Dense {
	out := NewDense(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

// Add computes dst = a + b element-wise. dst may alias a or b.
func Add(dst, a, b *Dense) {
	a.mustSameShape(b)
	dst.mustSameShape(a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b *Dense) {
	a.mustSameShape(b)
	dst.mustSameShape(a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul computes dst = a ⊙ b (Hadamard product). dst may alias a or b.
func Mul(dst, a, b *Dense) {
	a.mustSameShape(b)
	dst.mustSameShape(a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale multiplies every element of m by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled computes m += s·o in place.
func (m *Dense) AddScaled(s float64, o *Dense) {
	m.mustSameShape(o)
	for i := range m.Data {
		m.Data[i] += s * o.Data[i]
	}
}

// Apply sets m[i] = f(m[i]) for every element.
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// MaxAbs returns the maximum absolute value in m (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Norm2 returns the Frobenius norm of m.
func (m *Dense) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// ArgMaxRow returns the column index of the maximum value in row r.
func (m *Dense) ArgMaxRow(r int) int {
	row := m.Row(r)
	best := 0
	for c := 1; c < len(row); c++ {
		if row[c] > row[best] {
			best = c
		}
	}
	return best
}

// PermuteCols returns a new matrix whose column j is m's column perm[j].
// perm must be a permutation of [0, m.Cols).
func PermuteCols(m *Dense, perm []int) *Dense {
	if len(perm) != m.Cols {
		panic(fmt.Sprintf("tensor: perm length %d for %d cols", len(perm), m.Cols))
	}
	out := NewDense(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		src := m.Row(r)
		dst := out.Row(r)
		for j, p := range perm {
			dst[j] = src[p]
		}
	}
	return out
}

// PermuteRows returns a new matrix whose row i is m's row perm[i].
func PermuteRows(m *Dense, perm []int) *Dense {
	if len(perm) != m.Rows {
		panic(fmt.Sprintf("tensor: perm length %d for %d rows", len(perm), m.Rows))
	}
	out := NewDense(m.Rows, m.Cols)
	for i, p := range perm {
		copy(out.Row(i), m.Row(p))
	}
	return out
}
