package main

import (
	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/nn"
	"rramft/internal/tensor"
	"rramft/internal/train"
	"rramft/internal/xrand"
)

const (
	// probeReps is how many times each layer probe repeats; the median
	// is reported.
	probeReps = 30
	// replayIters is how many Fig. 2 iterations the replay runs through
	// Forward/Backward/SGD.Step for the training-layer split.
	replayIters = 30
	// replayBatch is the training batch size (core.DefaultTrainConfig).
	replayBatch = 16
)

// layerProbe times the layers' public functions at the shapes of the
// workload's model m and records a span around every call. It writes
// into m's crossbars (the replay trains, ApplyDelta programs), so it runs
// after everything that reads m has finished.
func layerProbe(t *tracer, m *core.Model, ds *dataset.Dataset, seed int64, into map[string]float64) {
	stores := m.RCSBindings()

	// mapping.read: one span per read-back of the whole model, one child
	// per store.
	for r := 0; r < probeReps; r++ {
		start := now()
		var kids []span
		for _, b := range stores {
			s0 := now()
			b.Store.Read()
			kids = append(kids, span{Name: "mapping.read", Start: s0, End: now()})
		}
		parent := t.add("mapping.read_model", 0, int64(r), start, now())
		for _, k := range kids {
			t.add(k.Name, parent, int64(r), k.Start, k.End)
		}
	}
	into["mapping.read_us"] = t.medianMs("mapping.read_model") * 1e3

	for _, b := range []int{1, 8, 16} {
		x := rowsFrom(ds.TestX, 0, b)
		name := map[int]string{1: "nn.forward_b1", 8: "nn.forward_b8", 16: "nn.forward_b16"}[b]
		m.Net.Forward(x)
		for r := 0; r < probeReps; r++ {
			t.timed(name, 0, int64(r), func() { m.Net.Forward(x) })
		}
		into[name+"_us"] = t.medianMs(name) * 1e3
	}
	into["mapping.read_share"] = into["mapping.read_us"] / into["nn.forward_b8_us"]

	// tensor.matmul at the largest crossbar layer's shape, batch 16.
	big := stores[0]
	for _, b := range stores {
		r, c := b.Store.Shape()
		br, bc := big.Store.Shape()
		if r*c > br*bc {
			big = b
		}
	}
	w := big.Store.Read().Clone()
	a := tensor.NewDense(replayBatch, w.Rows)
	fill(a.Data, xrand.Derive(seed, "perfbench/probe/matmul"))
	dst := tensor.NewDense(replayBatch, w.Cols)
	for r := 0; r < probeReps; r++ {
		t.timed("tensor.matmul", 0, int64(r), func() { tensor.MatMul(dst, a, w) })
	}
	into["tensor.matmul_us"] = t.medianMs("tensor.matmul") * 1e3

	// im2col/col2im at the Fig. 7(a) CNN's first convolution, one sample.
	cc := dataset.CIFARLike(seed)
	spec := nn.NewConvSpec(cc.C, cc.H, cc.W, 8, 3, 3, 1, 1)
	img := make([]float64, spec.InSize)
	fill(img, xrand.Derive(seed, "perfbench/probe/im2col"))
	patches := tensor.NewDense(spec.PatchRows, spec.PatchCols)
	for r := 0; r < probeReps; r++ {
		t.timed("tensor.im2col", 0, int64(r), func() {
			tensor.Im2Col(patches, img, spec.InC, spec.H, spec.W, spec.KH, spec.KW, spec.Stride, spec.Pad)
		})
	}
	for r := 0; r < probeReps; r++ {
		t.timed("tensor.col2im", 0, int64(r), func() {
			tensor.Col2Im(img, patches, spec.InC, spec.H, spec.W, spec.KH, spec.KW, spec.Stride, spec.Pad)
		})
	}
	into["tensor.im2col_us"] = t.medianMs("tensor.im2col") * 1e3
	into["tensor.col2im_us"] = t.medianMs("tensor.col2im") * 1e3

	replay(t, m, ds, into)

	// mapping.apply_delta: a threshold-training-like update (one weight in
	// ten moves) programmed into every store.
	rng := xrand.Derive(seed, "perfbench/probe/delta")
	deltas := make([]*tensor.Dense, len(stores))
	for i, b := range stores {
		r, c := b.Store.Shape()
		deltas[i] = tensor.NewDense(r, c)
		for j := range deltas[i].Data {
			if rng.Bool(0.1) {
				deltas[i].Data[j] = rng.Uniform(-0.01, 0.01) * b.Store.WMax()
			}
		}
	}
	for r := 0; r < probeReps; r++ {
		start := now()
		var kids []span
		for i, b := range stores {
			s0 := now()
			b.Store.ApplyDelta(deltas[i])
			kids = append(kids, span{Name: "mapping.apply_delta", Start: s0, End: now()})
		}
		parent := t.add("mapping.apply_delta_model", 0, int64(r), start, now())
		for _, k := range kids {
			t.add(k.Name, parent, int64(r), k.Start, k.End)
		}
	}
	into["mapping.apply_delta_us"] = t.medianMs("mapping.apply_delta_model") * 1e3
}

// replay runs replayIters Fig. 2 iterations (forward, loss, backward,
// threshold-filtered SGD step) on m, one "core.replay_iter" span per iteration
// with one child per step, for the training-layer split.
func replay(t *tracer, m *core.Model, ds *dataset.Dataset, into map[string]float64) {
	loss := &nn.SoftmaxCrossEntropy{}
	opt := nn.NewSGD(0.02)
	opt.Momentum = 0.9
	th := train.NewThreshold()
	th.Quantile = 0.9
	opt.Policy = th
	params := m.Net.Params()
	n := ds.TrainX.Rows / replayBatch
	for it := 0; it < replayIters; it++ {
		lo := (it % n) * replayBatch
		x := rowsFrom(ds.TrainX, lo, replayBatch)
		y := ds.TrainY[lo : lo+replayBatch]
		start := now()
		var kids []span
		step := func(name string, fn func()) {
			s0 := now()
			fn()
			kids = append(kids, span{Name: name, Start: s0, End: now()})
		}
		var out *tensor.Dense
		step("nn.forward_train", func() { out = m.Net.Forward(x) })
		step("nn.loss", func() { loss.Loss(out, y) })
		step("nn.zero_grads", func() { m.Net.ZeroGrads() })
		step("nn.backward", func() { m.Net.Backward(loss.Grad(y)) })
		step("train.step", func() { opt.Step(params) })
		parent := t.add("core.replay_iter", 0, int64(it), start, now())
		for _, k := range kids {
			t.add(k.Name, parent, int64(it), k.Start, k.End)
		}
	}
	into["nn.backward_us"] = t.medianMs("nn.backward") * 1e3
	into["train.step_us"] = t.medianMs("train.step") * 1e3
	if st := th.Stats(); st.Proposed > 0 {
		into["train.write_frac"] = float64(st.Written) / float64(st.Proposed)
	}
}

// rowsFrom returns a fresh matrix holding n rows of x from row lo on,
// wrapping around.
func rowsFrom(x *tensor.Dense, lo, n int) *tensor.Dense {
	out := tensor.NewDense(n, x.Cols)
	for i := 0; i < n; i++ {
		copy(out.Row(i), x.Row((lo+i)%x.Rows))
	}
	return out
}

func fill(data []float64, rng *xrand.Stream) {
	for i := range data {
		data[i] = rng.Uniform(-1, 1)
	}
}
