package nn

import (
	"fmt"

	"rramft/internal/tensor"
)

// ConvSpec describes the geometry of a 2-D convolution.
type ConvSpec struct {
	InC, H, W      int // input channels and spatial size
	OutC           int // output channels
	KH, KW         int // kernel size
	Stride, Pad    int
	OutH, OutW     int // derived
	PatchRows      int // OutH*OutW
	PatchCols      int // InC*KH*KW
	InSize, OutMax int // derived flattened sizes
}

// NewConvSpec fills in the derived fields.
func NewConvSpec(inC, h, w, outC, kh, kw, stride, pad int) ConvSpec {
	s := ConvSpec{InC: inC, H: h, W: w, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad}
	s.OutH, s.OutW, s.PatchRows, s.PatchCols = tensor.Im2ColShape(inC, h, w, kh, kw, stride, pad)
	s.InSize = inC * h * w
	s.OutMax = outC * s.OutH * s.OutW
	return s
}

// Conv2D is a 2-D convolution layer implemented with im2col. The kernel is
// stored as an outC×(inC·kh·kw) matrix in a WeightStore; this matches how a
// convolution kernel is unrolled onto an RRAM crossbar (one column — here
// one row of the logical matrix — per output channel).
type Conv2D struct {
	name string
	Spec ConvSpec
	K    *Param // outC × inC*kh*kw
	B    *Param // 1 × outC, software bias (CMOS periphery)

	x       *tensor.Dense
	patches []*tensor.Dense // per-sample cached patch matrices
	yBuf    *tensor.Dense
	dx      *tensor.Dense
	dpatch  *tensor.Dense
	kgTmp   *tensor.Dense // outC×patchCols backward scratch
	// sample views one sample's channel-major row (of the output or
	// its gradient) as an outC×patchRows matrix.
	sample tensor.Dense
}

// NewConv2D builds a convolution layer over the given weight store, whose
// shape must be outC×(inC·kh·kw).
func NewConv2D(name string, spec ConvSpec, store WeightStore) *Conv2D {
	r, c := store.Shape()
	if r != spec.OutC || c != spec.PatchCols {
		panic(fmt.Sprintf("nn: %s store %dx%d, want %dx%d", name, r, c, spec.OutC, spec.PatchCols))
	}
	return &Conv2D{
		name: name,
		Spec: spec,
		K:    NewParam(name+".K", store),
		B:    NewParam(name+".b", NewMatrixStore(tensor.NewDense(1, spec.OutC))),
	}
}

// Name returns the layer name.
func (l *Conv2D) Name() string { return l.name }

// Params returns the kernel and bias parameters.
func (l *Conv2D) Params() []*Param { return []*Param{l.K, l.B} }

// OutSize returns outC·outH·outW.
func (l *Conv2D) OutSize(in int) int {
	if in != l.Spec.InSize {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", l.name, l.Spec.InSize, in))
	}
	return l.Spec.OutMax
}

// Forward computes the convolution for each sample in the batch. The output
// layout per sample is channel-major: [outC][outH][outW] flattened, which
// is K·patchesᵀ written straight into the output row.
func (l *Conv2D) Forward(x *tensor.Dense) *tensor.Dense {
	s := l.Spec
	if x.Cols != s.InSize {
		panic(fmt.Sprintf("nn: %s forward got %d features, want %d", l.name, x.Cols, s.InSize))
	}
	l.x = x
	l.yBuf = tensor.EnsureShape(l.yBuf, x.Rows, s.OutMax)
	if len(l.patches) < x.Rows {
		grown := make([]*tensor.Dense, x.Rows)
		copy(grown, l.patches)
		l.patches = grown
	}
	k := l.K.Store.Read()
	b := l.B.Store.Read()
	for i := 0; i < x.Rows; i++ {
		if l.patches[i] == nil {
			l.patches[i] = tensor.NewDense(s.PatchRows, s.PatchCols)
		}
		tensor.Im2Col(l.patches[i], x.Row(i), s.InC, s.H, s.W, s.KH, s.KW, s.Stride, s.Pad)
		y := l.view(l.yBuf.Row(i))
		tensor.MatMulTransB(y, k, l.patches[i])
		for oc := 0; oc < s.OutC; oc++ {
			bias := b.Data[oc]
			yc := y.Row(oc)
			for p := range yc {
				yc[p] += bias
			}
		}
	}
	return l.yBuf
}

// view points l.sample at row, one sample's outC×patchRows output or
// output gradient.
func (l *Conv2D) view(row []float64) *tensor.Dense {
	l.sample = tensor.Dense{Rows: l.Spec.OutC, Cols: l.Spec.PatchRows, Data: row}
	return &l.sample
}

// Backward computes kernel/bias gradients and the input gradient.
func (l *Conv2D) Backward(dout *tensor.Dense) *tensor.Dense {
	l.backward(dout, true)
	return l.dx
}

// BackwardParams computes the kernel and bias gradients only, skipping
// the input gradient (its dy·K product and Col2Im).
func (l *Conv2D) BackwardParams(dout *tensor.Dense) {
	l.backward(dout, false)
}

func (l *Conv2D) backward(dout *tensor.Dense, wantDX bool) {
	s := l.Spec
	if l.x == nil {
		panic("nn: Backward before Forward on " + l.name)
	}
	kg := l.K.Grad
	kg.Zero()
	bg := l.B.Grad
	bg.Zero()
	k := l.K.Store.Read()
	l.kgTmp = tensor.EnsureShape(l.kgTmp, s.OutC, s.PatchCols)
	if wantDX {
		l.dx = tensor.EnsureShape(l.dx, dout.Rows, s.InSize)
		l.dpatch = tensor.EnsureShape(l.dpatch, s.PatchRows, s.PatchCols)
	}
	for i := 0; i < dout.Rows; i++ {
		dy := l.view(dout.Row(i)) // outC×patchRows
		for oc := 0; oc < s.OutC; oc++ {
			for _, v := range dy.Row(oc) {
				bg.Data[oc] += v
			}
		}
		// dK += dy·patches  (outC×patchRows · patchRows×patchCols)
		tensor.MatMul(l.kgTmp, dy, l.patches[i])
		kg.AddScaled(1, l.kgTmp)
		if wantDX {
			// dpatch = dyᵀ·K
			tensor.MatMulTransA(l.dpatch, dy, k)
			tensor.Col2Im(l.dx.Row(i), l.dpatch, s.InC, s.H, s.W, s.KH, s.KW, s.Stride, s.Pad)
		}
	}
}
