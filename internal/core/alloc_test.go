package core

import (
	"testing"

	"rramft/internal/dataset"
	"rramft/internal/nn"
	"rramft/internal/par"
	"rramft/internal/tensor"
)

// TestCNNTrainingPassAllocFree is the training-side AllocsPerRun gate: on
// the Fig. 7(a) CNN with every layer on crossbars, a steady-batch Forward
// plus BackwardParams allocates nothing once the layers' buffers have
// grown to the batch (serial kernels, as the worker pool pins them on a
// one-worker run).
func TestCNNTrainingPassAllocFree(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	dc := dataset.CIFARLike(5)
	dc.TrainN, dc.TestN = 32, 8
	ds := dataset.Generate(dc)
	opts := DefaultBuildOptions(5)
	opts.OnRCS, opts.ConvOnRCS = true, true
	opts.InitialFaultFrac = 0.1
	m := BuildCNN(dc.C, dc.H, dc.W, dc.Classes, opts)

	x := tensor.FromSlice(16, ds.TrainX.Cols, ds.TrainX.Data[:16*ds.TrainX.Cols])
	y := ds.TrainY[:16]
	loss := &nn.SoftmaxCrossEntropy{}
	pass := func() {
		loss.Loss(m.Net.Forward(x), y)
		m.Net.BackwardParams(loss.Grad(y))
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("steady-batch CNN Forward+BackwardParams allocates %.1f/op, want 0", n)
	}
}
