package nn

import (
	"math"
	"testing"

	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// numericalGrad estimates dLoss/dW for every entry of the store's matrix by
// central differences, where loss() re-runs the full forward pass.
func numericalGrad(w *tensor.Dense, loss func() float64) *tensor.Dense {
	const eps = 1e-5
	g := tensor.NewDense(w.Rows, w.Cols)
	for i := range w.Data {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		lp := loss()
		w.Data[i] = orig - eps
		lm := loss()
		w.Data[i] = orig
		g.Data[i] = (lp - lm) / (2 * eps)
	}
	return g
}

func maxRelErr(a, b *tensor.Dense) float64 {
	var worst float64
	for i := range a.Data {
		diff := math.Abs(a.Data[i] - b.Data[i])
		scale := math.Abs(a.Data[i]) + math.Abs(b.Data[i]) + 1e-8
		if r := diff / scale; r > worst {
			worst = r
		}
	}
	return worst
}

func checkNetGradients(t *testing.T, net *Network, x *tensor.Dense, labels []int, tol float64) {
	t.Helper()
	loss := &SoftmaxCrossEntropy{}
	run := func() float64 { return loss.Loss(net.Forward(x), labels) }

	run()
	net.ZeroGrads()
	net.Backward(loss.Grad(labels))

	for _, p := range net.Params() {
		ms, ok := p.Store.(*MatrixStore)
		if !ok {
			t.Fatalf("gradient check requires MatrixStore for %s", p.Name)
		}
		analytic := p.Grad.Clone()
		numeric := numericalGrad(ms.W, run)
		if err := maxRelErr(analytic, numeric); err > tol {
			t.Errorf("%s: max relative gradient error %.2e > %.2e", p.Name, err, tol)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := xrand.New(100)
	net := NewNetwork(
		NewDenseHe("fc1", 6, 5, rng),
		NewTanh("t1"),
		NewDenseHe("fc2", 5, 3, rng),
	)
	x := tensor.NewDense(4, 6)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	checkNetGradients(t, net, x, []int{0, 2, 1, 1}, 1e-4)
}

func TestDenseReLUGradients(t *testing.T) {
	rng := xrand.New(101)
	net := NewNetwork(
		NewDenseHe("fc1", 8, 7, rng),
		NewReLU("r1"),
		NewDenseHe("fc2", 7, 4, rng),
	)
	x := tensor.NewDense(3, 8)
	for i := range x.Data {
		// Keep inputs away from ReLU kinks for the finite-difference check.
		x.Data[i] = rng.Uniform(0.1, 1)
	}
	checkNetGradients(t, net, x, []int{3, 0, 2}, 2e-4)
}

func TestSigmoidGradients(t *testing.T) {
	rng := xrand.New(102)
	net := NewNetwork(
		NewDenseHe("fc1", 5, 6, rng),
		NewSigmoid("s1"),
		NewDenseHe("fc2", 6, 2, rng),
	)
	x := tensor.NewDense(2, 5)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	checkNetGradients(t, net, x, []int{1, 0}, 1e-4)
}

func TestConvGradients(t *testing.T) {
	rng := xrand.New(103)
	spec := NewConvSpec(2, 4, 4, 3, 3, 3, 1, 1)
	net := NewNetwork(
		NewConv2DHe("conv1", spec, rng),
		NewTanh("t1"),
		NewDenseHe("fc", spec.OutMax, 3, rng),
	)
	x := tensor.NewDense(2, spec.InSize)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	checkNetGradients(t, net, x, []int{0, 2}, 2e-4)
}

func TestConvPoolGradients(t *testing.T) {
	rng := xrand.New(104)
	spec := NewConvSpec(1, 4, 4, 2, 3, 3, 1, 1)
	net := NewNetwork(
		NewConv2DHe("conv1", spec, rng),
		NewMaxPool2("pool", 2, 4, 4),
		NewDenseHe("fc", 2*2*2, 3, rng),
	)
	x := tensor.NewDense(2, spec.InSize)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	checkNetGradients(t, net, x, []int{1, 2}, 2e-4)
}

func TestInputGradient(t *testing.T) {
	// dL/dx from Backward must match finite differences on the input.
	rng := xrand.New(105)
	net := NewNetwork(
		NewDenseHe("fc1", 4, 5, rng),
		NewTanh("t"),
		NewDenseHe("fc2", 5, 3, rng),
	)
	x := tensor.NewDense(2, 4)
	for i := range x.Data {
		x.Data[i] = rng.Uniform(-1, 1)
	}
	labels := []int{0, 2}
	loss := &SoftmaxCrossEntropy{}
	run := func() float64 { return loss.Loss(net.Forward(x), labels) }
	run()
	net.ZeroGrads()
	dx := net.Backward(loss.Grad(labels)).Clone()
	ndx := numericalGrad(x, run)
	if err := maxRelErr(dx, ndx); err > 1e-4 {
		t.Errorf("input gradient relative error %.2e", err)
	}
}

// TestBackwardParamsMatchesBackward: the training backward fills every
// parameter gradient bit for bit as Backward does, and leaves the first
// layer's input gradient uncomputed. Covered: a Fig. 7(a)-shaped CNN
// (first layer a convolution), an MLP (first layer dense), and a network
// whose first layer has no parameters (it falls back to Backward).
func TestBackwardParamsMatchesBackward(t *testing.T) {
	build := map[string]func(rng *xrand.Stream) (*Network, int){
		"cnn": func(rng *xrand.Stream) (*Network, int) {
			s1 := NewConvSpec(3, 8, 8, 4, 3, 3, 1, 1)
			s2 := NewConvSpec(4, 4, 4, 6, 3, 3, 1, 1)
			return NewNetwork(
				NewConv2DHe("conv1", s1, rng), NewReLU("r1"), NewMaxPool2("p1", 4, 8, 8),
				NewConv2DHe("conv2", s2, rng), NewReLU("r2"), NewMaxPool2("p2", 6, 4, 4),
				NewDenseHe("fc1", 6*2*2, 5, rng), NewReLU("r3"), NewDenseHe("fc2", 5, 3, rng),
			), s1.InSize
		},
		"mlp": func(rng *xrand.Stream) (*Network, int) {
			return NewNetwork(NewDenseHe("fc1", 7, 6, rng), NewReLU("r"), NewDenseHe("fc2", 6, 3, rng)), 7
		},
		"relu-first": func(rng *xrand.Stream) (*Network, int) {
			return NewNetwork(NewReLU("r0"), NewDenseHe("fc1", 7, 3, rng)), 7
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(106)
			net, in := mk(rng)
			x := tensor.NewDense(5, in)
			for i := range x.Data {
				x.Data[i] = rng.Uniform(-1, 1)
			}
			labels := []int{0, 1, 2, 1, 0}
			loss := &SoftmaxCrossEntropy{}

			loss.Loss(net.Forward(x), labels)
			net.ZeroGrads()
			net.BackwardParams(loss.Grad(labels))
			var got []*tensor.Dense
			for _, p := range net.Params() {
				got = append(got, p.Grad.Clone())
			}
			switch first := net.Layers[0].Layer.(type) {
			case *Conv2D:
				if first.dx != nil || first.dpatch != nil {
					t.Error("BackwardParams computed the first convolution's input gradient")
				}
			case *DenseLayer:
				if first.dx != nil {
					t.Error("BackwardParams computed the first dense layer's input gradient")
				}
			}

			loss.Loss(net.Forward(x), labels)
			net.ZeroGrads()
			net.Backward(loss.Grad(labels))
			for i, p := range net.Params() {
				for j, v := range p.Grad.Data {
					if math.Float64bits(v) != math.Float64bits(got[i].Data[j]) {
						t.Fatalf("%s[%d]: BackwardParams %v, Backward %v", p.Name, j, got[i].Data[j], v)
					}
				}
			}
		})
	}
}
