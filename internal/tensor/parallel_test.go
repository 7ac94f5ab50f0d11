package tensor

import (
	"math"
	"strconv"
	"testing"

	"rramft/internal/par"
	"rramft/internal/xrand"
)

// randDense fills a matrix with uniform values, a sprinkling of exact
// zeros (the matmul kernels skip zero entries, so the skip path must be
// partition-independent too).
func randDense(rows, cols int, seed int64) *Dense {
	rng := xrand.New(seed)
	m := NewDense(rows, cols)
	for i := range m.Data {
		if rng.Bool(0.1) {
			continue // exact zero
		}
		m.Data[i] = rng.Uniform(-1, 1)
	}
	return m
}

// withWorkers runs fn with RRAMFT_WORKERS pinned to n.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	t.Setenv(par.EnvWorkers, strconv.Itoa(n))
	fn()
}

// TestMatMulWorkerCountInvariant is the headline equivalence suite: every
// parallelized product must produce byte-identical output (tolerance 0)
// with 1 worker and with 8.
func TestMatMulWorkerCountInvariant(t *testing.T) {
	cases := []struct {
		name    string
		m, k, n int
	}{
		{"tiny", 1, 1, 1},
		{"skinny", 3, 200, 2},
		{"wide", 2, 5, 300},
		{"square", 64, 64, 64},
		{"odd", 33, 17, 51},
		{"big", 128, 96, 80},
	}
	ops := []struct {
		name string
		run  func(tc struct {
			name    string
			m, k, n int
		}, seed int64) *Dense
	}{
		{"MatMul", func(tc struct {
			name    string
			m, k, n int
		}, seed int64) *Dense {
			a := randDense(tc.m, tc.k, seed)
			b := randDense(tc.k, tc.n, seed+1)
			dst := NewDense(tc.m, tc.n)
			dst.Fill(999) // stale contents must not leak through
			MatMul(dst, a, b)
			return dst
		}},
		{"MatMulTransA", func(tc struct {
			name    string
			m, k, n int
		}, seed int64) *Dense {
			a := randDense(tc.k, tc.m, seed)
			b := randDense(tc.k, tc.n, seed+1)
			dst := NewDense(tc.m, tc.n)
			dst.Fill(999)
			MatMulTransA(dst, a, b)
			return dst
		}},
		{"MatMulTransB", func(tc struct {
			name    string
			m, k, n int
		}, seed int64) *Dense {
			a := randDense(tc.m, tc.k, seed)
			b := randDense(tc.n, tc.k, seed+1)
			dst := NewDense(tc.m, tc.n)
			dst.Fill(999)
			MatMulTransB(dst, a, b)
			return dst
		}},
	}
	for _, op := range ops {
		for i, tc := range cases {
			seed := int64(100 + 10*i)
			var serial, parallel *Dense
			withWorkers(t, 1, func() { serial = op.run(tc, seed) })
			withWorkers(t, 8, func() { parallel = op.run(tc, seed) })
			if !Equal(serial, parallel, 0) {
				t.Errorf("%s/%s: parallel output differs from serial (tol 0)", op.name, tc.name)
			}
		}
	}
}

func TestIm2ColWorkerCountInvariant(t *testing.T) {
	cases := []struct {
		name                           string
		inC, h, w, kh, kw, stride, pad int
	}{
		{"3x3pad1", 3, 16, 16, 3, 3, 1, 1},
		{"5x5stride2", 2, 13, 11, 5, 5, 2, 2},
		{"1x1", 4, 8, 8, 1, 1, 1, 0},
		{"singlerow", 1, 1, 32, 1, 3, 1, 1},
	}
	for _, tc := range cases {
		rng := xrand.New(9)
		src := make([]float64, tc.inC*tc.h*tc.w)
		for i := range src {
			src[i] = rng.Uniform(-1, 1)
		}
		_, _, pr, pc := Im2ColShape(tc.inC, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		serial := NewDense(pr, pc)
		parallel := NewDense(pr, pc)
		withWorkers(t, 1, func() {
			Im2Col(serial, src, tc.inC, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		})
		withWorkers(t, 8, func() {
			Im2Col(parallel, src, tc.inC, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		})
		if !Equal(serial, parallel, 0) {
			t.Errorf("%s: parallel Im2Col differs from serial (tol 0)", tc.name)
		}
	}
}

// The reference products below are the textbook loops written in the
// summation order the package guarantees: every output element is summed
// from zero, k ascending, and MatMul and MatMulTransA skip the terms whose
// a entry is zero (MatMulTransB skips none).

func refMatMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				if a.At(i, k) == 0 {
					continue
				}
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func refMatMulTransA(a, b *Dense) *Dense {
	out := NewDense(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Rows; k++ {
				if a.At(k, i) == 0 {
					continue
				}
				sum += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func refMatMulTransB(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// sameBits reports whether a and b have the same shape and bit-identical
// elements: +0 and -0 differ, and any NaN matches any NaN (which NaN an
// operation returns is up to the hardware and the operand order the
// compiler picks).
func sameBits(a, b *Dense) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, x := range a.Data {
		y := b.Data[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	return true
}

// sparseDense is randDense plus what the register-blocked kernels must
// get right: negative zeros among the skipped entries, and whole rows and
// columns of zeros (a ReLU'd or max-pooled gradient looks like this).
func sparseDense(rows, cols int, seed int64) *Dense {
	m := randDense(rows, cols, seed)
	rng := xrand.New(seed + 7)
	for i := range m.Data {
		if m.Data[i] == 0 && rng.Bool(0.5) {
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	for r := 0; r < rows; r++ {
		if rng.Bool(0.2) {
			clear(m.Row(r))
		}
	}
	for c := 0; c < cols; c++ {
		if rng.Bool(0.2) {
			for r := 0; r < rows; r++ {
				m.Set(r, c, 0)
			}
		}
	}
	return m
}

// TestMatMulAgainstNaive anchors the register-blocked kernels to the
// reference loops and pins the summation order: the three products must
// equal them bit for bit (tolerance 0), with 1 worker and with 8, on every
// combination of dimensions 1–9 and 27 (every remainder of the 4-wide
// blocks) and on those combinations with one dimension raised to 72 or
// 256, over matrices with all-zero rows and columns. Reordering any
// element's sum, or skipping a different set of terms, fails it.
func TestMatMulAgainstNaive(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 72, 256}
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			for _, m := range dims {
				for _, k := range dims {
					for _, n := range dims {
						big := 0
						for _, d := range []int{m, k, n} {
							if d >= 72 {
								big++
							}
						}
						if big > 1 {
							continue
						}
						seed := int64(1000*m + 10*k + n)
						a, b := sparseDense(m, k, seed), sparseDense(k, n, seed+1)
						// Row kk of bInf meets only zero a terms when a's
						// column kk is all zero: the infinity there turns
						// every sum into a NaN (0·∞) unless those terms
						// are skipped.
						bInf := b.Clone()
						for kk := 0; kk < k; kk++ {
							zero := true
							for i := 0; i < m; i++ {
								zero = zero && a.At(i, kk) == 0
							}
							if zero {
								bInf.Row(kk)[0] = math.Inf(1)
							}
						}
						got := NewDense(m, n)
						got.Fill(999) // stale contents must not leak through
						MatMul(got, a, bInf)
						if !sameBits(got, refMatMul(a, bInf)) {
							t.Fatalf("workers=%d: MatMul %dx%d·%dx%d differs from the reference", workers, m, k, k, n)
						}
						at := Transpose(a)
						got.Fill(999)
						MatMulTransA(got, at, bInf)
						if !sameBits(got, refMatMulTransA(at, bInf)) {
							t.Fatalf("workers=%d: MatMulTransA (%dx%d)ᵀ·%dx%d differs from the reference", workers, k, m, k, n)
						}
						bt := Transpose(b)
						got.Fill(999)
						MatMulTransB(got, a, bt)
						if !sameBits(got, refMatMulTransB(a, bt)) {
							t.Fatalf("workers=%d: MatMulTransB %dx%d·(%dx%d)ᵀ differs from the reference", workers, m, k, n, k)
						}
					}
				}
			}
		})
	}
}
