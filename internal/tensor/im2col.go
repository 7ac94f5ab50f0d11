package tensor

import (
	"fmt"

	"rramft/internal/par"
)

// Im2ColShape returns the output spatial size and the patch matrix shape for
// a convolution over an inC×h×w input with kh×kw kernels, given stride and
// zero padding.
func Im2ColShape(inC, h, w, kh, kw, stride, pad int) (outH, outW, patchRows, patchCols int) {
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	return outH, outW, outH * outW, inC * kh * kw
}

// Im2Col expands a single image (channel-major, inC×h×w flattened into src)
// into a patch matrix of shape (outH*outW)×(inC*kh*kw), so that convolution
// becomes patch·Wᵀ. dst must have that shape. Padding is zero-padding.
func Im2Col(dst *Dense, src []float64, inC, h, w, kh, kw, stride, pad int) {
	_, outW, pr, pc := Im2ColShape(inC, h, w, kh, kw, stride, pad)
	if len(src) != inC*h*w {
		panic(fmt.Sprintf("tensor: im2col src length %d want %d", len(src), inC*h*w))
	}
	if dst.Rows != pr || dst.Cols != pc {
		panic(fmt.Sprintf("tensor: im2col dst %dx%d want %dx%d", dst.Rows, dst.Cols, pr, pc))
	}
	// Patch-row-blocked: each dst row (one output position's patch) is
	// filled independently, so the parallel output is byte-identical to
	// the serial one. The serial path bypasses par.For to stay
	// allocation-free (see par.Serial).
	g := blockGrain(pc)
	if par.Serial(pr, g) {
		im2colRows(dst, src, outW, inC, h, w, kh, kw, stride, pad, 0, pr)
		return
	}
	par.For(pr, g, func(p0, p1 int) {
		im2colRows(dst, src, outW, inC, h, w, kh, kw, stride, pad, p0, p1)
	})
}

// kxRange returns the kernel columns [kx0, kx1) that land inside an image
// of width w when kernel column 0 sits at image column x0; the rest read
// the zero padding. It is the same for every channel and kernel row of a
// patch.
func kxRange(x0, w, kw int) (kx0, kx1 int) {
	kx0 = min(kw, max(0, -x0))
	kx1 = max(kx0, min(kw, w-x0))
	return kx0, kx1
}

// im2colRows fills dst rows [p0, p1) of the patch matrix.
func im2colRows(dst *Dense, src []float64, outW, inC, h, w, kh, kw, stride, pad, p0, p1 int) {
	for p := p0; p < p1; p++ {
		oy, ox := p/outW, p%outW
		x0 := ox*stride - pad
		kx0, kx1 := kxRange(x0, w, kw)
		drow := dst.Row(p)
		clear(drow)
		if kx0 == kx1 {
			continue // the patch lies wholly in the padding
		}
		for ky := 0; ky < kh; ky++ {
			iy := oy*stride + ky - pad
			if iy < 0 || iy >= h {
				continue
			}
			for c := 0; c < inC; c++ {
				d := drow[(c*kh+ky)*kw:][kx0:kx1]
				s0 := c*h*w + iy*w + x0
				s := src[s0+kx0 : s0+kx1][:len(d)]
				for kx := range d {
					d[kx] = s[kx]
				}
			}
		}
	}
}

// Col2Im scatters patch-matrix gradients back into image gradients,
// accumulating overlapping contributions. dst must have length inC*h*w and
// is zeroed first.
func Col2Im(dst []float64, patches *Dense, inC, h, w, kh, kw, stride, pad int) {
	_, outW, pr, pc := Im2ColShape(inC, h, w, kh, kw, stride, pad)
	if len(dst) != inC*h*w {
		panic(fmt.Sprintf("tensor: col2im dst length %d want %d", len(dst), inC*h*w))
	}
	if patches.Rows != pr || patches.Cols != pc {
		panic(fmt.Sprintf("tensor: col2im patches %dx%d want %dx%d", patches.Rows, patches.Cols, pr, pc))
	}
	clear(dst)
	for p := 0; p < pr; p++ {
		oy, ox := p/outW, p%outW
		x0 := ox*stride - pad
		kx0, kx1 := kxRange(x0, w, kw)
		if kx0 == kx1 {
			continue
		}
		prow := patches.Row(p)
		for ky := 0; ky < kh; ky++ {
			iy := oy*stride + ky - pad
			if iy < 0 || iy >= h {
				continue
			}
			for c := 0; c < inC; c++ {
				s := prow[(c*kh+ky)*kw:][kx0:kx1]
				d0 := c*h*w + iy*w + x0
				d := dst[d0+kx0 : d0+kx1][:len(s)]
				for kx, v := range s {
					d[kx] += v
				}
			}
		}
	}
}
