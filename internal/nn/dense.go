package nn

import (
	"fmt"

	"rramft/internal/tensor"
)

// DenseLayer is a fully-connected layer computing y = x·W + b.
//
// W has shape in×out and is held in a WeightStore (so it can live on an RRAM
// crossbar). The bias vector is always a software parameter: in the RCS
// architectures the paper builds on, biases are realized in the CMOS neuron
// periphery rather than in the array, so they are unaffected by RRAM faults.
type DenseLayer struct {
	name    string
	In, Out int
	W       *Param
	B       *Param

	x    *tensor.Dense // cached input
	yBuf *tensor.Dense
	dx   *tensor.Dense
}

// NewDense builds a fully-connected layer over the given weight store
// (shape in×out). A zero bias parameter is created in software.
func NewDense(name string, store WeightStore) *DenseLayer {
	in, out := store.Shape()
	return &DenseLayer{
		name: name,
		In:   in,
		Out:  out,
		W:    NewParam(name+".W", store),
		B:    NewParam(name+".b", NewMatrixStore(tensor.NewDense(1, out))),
	}
}

// Name returns the layer name.
func (l *DenseLayer) Name() string { return l.name }

// Params returns the weight and bias parameters.
func (l *DenseLayer) Params() []*Param { return []*Param{l.W, l.B} }

// OutSize returns the output feature count.
func (l *DenseLayer) OutSize(in int) int {
	if in != l.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", l.name, l.In, in))
	}
	return l.Out
}

// Forward computes y = x·W + b for a batch.
func (l *DenseLayer) Forward(x *tensor.Dense) *tensor.Dense {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: %s forward got %d features, want %d", l.name, x.Cols, l.In))
	}
	l.x = x
	l.yBuf = tensor.EnsureShape(l.yBuf, x.Rows, l.Out)
	w := l.W.Store.Read()
	tensor.MatMul(l.yBuf, x, w)
	b := l.B.Store.Read()
	for r := 0; r < l.yBuf.Rows; r++ {
		row := l.yBuf.Row(r)
		for c := range row {
			row[c] += b.Data[c]
		}
	}
	return l.yBuf
}

// Backward computes dW = xᵀ·dout and db = Σ dout, returning dx = dout·Wᵀ.
// The gradients are overwritten, not accumulated: one backward per forward.
func (l *DenseLayer) Backward(dout *tensor.Dense) *tensor.Dense {
	l.BackwardParams(dout)
	l.dx = tensor.EnsureShape(l.dx, dout.Rows, l.In)
	tensor.MatMulTransB(l.dx, dout, l.W.Store.Read())
	return l.dx
}

// BackwardParams computes dW and db only, skipping dx.
func (l *DenseLayer) BackwardParams(dout *tensor.Dense) {
	if l.x == nil {
		panic("nn: Backward before Forward on " + l.name)
	}
	tensor.MatMulTransA(l.W.Grad, l.x, dout)
	bg := l.B.Grad
	bg.Zero()
	for r := 0; r < dout.Rows; r++ {
		row := dout.Row(r)
		for c := range row {
			bg.Data[c] += row[c]
		}
	}
}
