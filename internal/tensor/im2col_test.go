package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"rramft/internal/xrand"
)

func TestIm2ColShape(t *testing.T) {
	outH, outW, pr, pc := Im2ColShape(3, 8, 8, 3, 3, 1, 1)
	if outH != 8 || outW != 8 {
		t.Errorf("out = %dx%d, want 8x8 (same padding)", outH, outW)
	}
	if pr != 64 || pc != 27 {
		t.Errorf("patch = %dx%d, want 64x27", pr, pc)
	}
	outH, outW, _, _ = Im2ColShape(1, 5, 5, 3, 3, 2, 0)
	if outH != 2 || outW != 2 {
		t.Errorf("strided out = %dx%d, want 2x2", outH, outW)
	}
}

func TestIm2ColSingleChannelNoPad(t *testing.T) {
	// 1x3x3 image, 2x2 kernel, stride 1, pad 0 -> 2x2 output, 4 patches.
	src := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	_, _, pr, pc := Im2ColShape(1, 3, 3, 2, 2, 1, 0)
	dst := NewDense(pr, pc)
	Im2Col(dst, src, 1, 3, 3, 2, 2, 1, 0)
	want := [][]float64{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for r, w := range want {
		for c, v := range w {
			if dst.At(r, c) != v {
				t.Fatalf("patch[%d][%d] = %v, want %v", r, c, dst.At(r, c), v)
			}
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	// 1x2x2 image, 3x3 kernel, pad 1 -> 2x2 output; corner patch has 5 zeros.
	src := []float64{1, 2, 3, 4}
	_, _, pr, pc := Im2ColShape(1, 2, 2, 3, 3, 1, 1)
	dst := NewDense(pr, pc)
	Im2Col(dst, src, 1, 2, 2, 3, 3, 1, 1)
	// First patch centered at (0,0): rows -1..1, cols -1..1.
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for c, v := range want {
		if dst.At(0, c) != v {
			t.Fatalf("padded patch[0][%d] = %v, want %v", c, dst.At(0, c), v)
		}
	}
}

func TestIm2ColConvolutionEquivalence(t *testing.T) {
	// Direct convolution vs im2col + matmul on a small random case.
	rng := xrand.New(11)
	inC, h, w, kh, kw, stride, pad := 2, 5, 5, 3, 3, 1, 1
	outC := 3
	src := make([]float64, inC*h*w)
	for i := range src {
		src[i] = rng.Uniform(-1, 1)
	}
	kern := randomDense(rng, outC, inC*kh*kw)
	outH, outW, pr, pc := Im2ColShape(inC, h, w, kh, kw, stride, pad)

	patches := NewDense(pr, pc)
	Im2Col(patches, src, inC, h, w, kh, kw, stride, pad)
	got := NewDense(pr, outC)
	MatMulTransB(got, patches, kern)

	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var sum float64
				for c := 0; c < inC; c++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							sum += src[c*h*w+iy*w+ix] * kern.At(oc, c*kh*kw+ky*kw+kx)
						}
					}
				}
				if g := got.At(oy*outW+ox, oc); absDiff(g, sum) > 1e-10 {
					t.Fatalf("conv mismatch at oc=%d oy=%d ox=%d: %v vs %v", oc, oy, ox, g, sum)
				}
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col: <Im2Col(x), P> == <x, Col2Im(P)>.
func TestIm2ColAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		inC := 1 + rng.Intn(2)
		h := 3 + rng.Intn(3)
		w := 3 + rng.Intn(3)
		kh, kw := 2, 2
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		_, _, pr, pc := Im2ColShape(inC, h, w, kh, kw, stride, pad)
		if pr <= 0 {
			return true
		}
		x := make([]float64, inC*h*w)
		for i := range x {
			x[i] = rng.Uniform(-1, 1)
		}
		p := randomDense(rng, pr, pc)

		ix := NewDense(pr, pc)
		Im2Col(ix, x, inC, h, w, kh, kw, stride, pad)
		var lhs float64
		for i := range ix.Data {
			lhs += ix.Data[i] * p.Data[i]
		}

		cx := make([]float64, inC*h*w)
		Col2Im(cx, p, inC, h, w, kh, kw, stride, pad)
		var rhs float64
		for i := range x {
			rhs += x[i] * cx[i]
		}
		return absDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// refIm2Col and refCol2Im are the per-element definitions: every patch
// entry tests its own position against the padding, and Col2Im adds each
// in-image entry in patch order (output position, then channel, kernel
// row, kernel column).
func refIm2Col(src []float64, inC, h, w, kh, kw, stride, pad int) *Dense {
	outH, outW, pr, pc := Im2ColShape(inC, h, w, kh, kw, stride, pad)
	dst := NewDense(pr, pc)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			drow := dst.Row(oy*outW + ox)
			idx := 0
			for c := 0; c < inC; c++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							drow[idx] = src[c*h*w+iy*w+ix]
						}
						idx++
					}
				}
			}
		}
	}
	return dst
}

func refCol2Im(patches *Dense, inC, h, w, kh, kw, stride, pad int) []float64 {
	outH, outW, _, _ := Im2ColShape(inC, h, w, kh, kw, stride, pad)
	dst := make([]float64, inC*h*w)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			prow := patches.Row(oy*outW + ox)
			idx := 0
			for c := 0; c < inC; c++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dst[c*h*w+iy*w+ix] += prow[idx]
						}
						idx++
					}
				}
			}
		}
	}
	return dst
}

// TestIm2ColCol2ImBitIdenticalToReference: Im2Col and Col2Im equal the
// per-element definitions bit for bit (tolerance 0) over stride {1, 2},
// pad {0, 1, 2}, square and non-square kernels, and kernels wider or
// taller than the image, with 1 worker and with 8.
func TestIm2ColCol2ImBitIdenticalToReference(t *testing.T) {
	type geom struct{ inC, h, w, kh, kw int }
	geoms := []geom{
		{1, 1, 1, 1, 1}, {3, 16, 16, 3, 3}, {8, 8, 8, 3, 3}, {2, 5, 7, 3, 2},
		{1, 2, 2, 5, 5}, {2, 3, 1, 1, 4}, {1, 4, 3, 2, 5}, {3, 6, 5, 4, 4},
	}
	checked := 0
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			for gi, g := range geoms {
				for _, stride := range []int{1, 2} {
					for _, pad := range []int{0, 1, 2} {
						outH, outW, pr, pc := Im2ColShape(g.inC, g.h, g.w, g.kh, g.kw, stride, pad)
						if outH <= 0 || outW <= 0 {
							continue // the kernel does not fit even with padding
						}
						rng := xrand.New(int64(100*gi + 10*stride + pad))
						src := make([]float64, g.inC*g.h*g.w)
						for i := range src {
							src[i] = rng.Uniform(-1, 1)
						}
						got := NewDense(pr, pc)
						got.Fill(999) // padding entries must be written, not left
						Im2Col(got, src, g.inC, g.h, g.w, g.kh, g.kw, stride, pad)
						if !sameBits(got, refIm2Col(src, g.inC, g.h, g.w, g.kh, g.kw, stride, pad)) {
							t.Fatalf("workers=%d %+v stride=%d pad=%d: Im2Col differs from the reference", workers, g, stride, pad)
						}
						p := randomDense(rng, pr, pc)
						img := make([]float64, len(src))
						for i := range img {
							img[i] = 999
						}
						Col2Im(img, p, g.inC, g.h, g.w, g.kh, g.kw, stride, pad)
						want := refCol2Im(p, g.inC, g.h, g.w, g.kh, g.kw, stride, pad)
						for i := range img {
							if math.Float64bits(img[i]) != math.Float64bits(want[i]) {
								t.Fatalf("workers=%d %+v stride=%d pad=%d: Col2Im[%d] = %v, reference %v", workers, g, stride, pad, i, img[i], want[i])
							}
						}
						checked++
					}
				}
			}
		})
	}
	if checked < 40 {
		t.Fatalf("only %d geometries checked", checked)
	}
}
