package train

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"rramft/internal/nn"
	"rramft/internal/tensor"
	"rramft/internal/testkit"
	"rramft/internal/xrand"
)

func makeParam(rows, cols int) *nn.Param {
	return nn.NewParam("p", nn.NewMatrixStore(tensor.NewDense(rows, cols)))
}

func TestFilterDeltaZeroesSmallUpdates(t *testing.T) {
	p := makeParam(1, 4)
	th := NewThreshold() // theta = 0.01
	delta := tensor.FromSlice(1, 4, []float64{1.0, 0.005, 0.02, 0.0001})
	th.FilterDelta(p, delta)
	// max = 1.0, threshold = 0.01: entries 0.005 and 0.0001 die.
	want := []float64{1.0, 0, 0.02, 0}
	for i, v := range want {
		if delta.Data[i] != v {
			t.Errorf("delta[%d] = %v, want %v", i, delta.Data[i], v)
		}
	}
}

func TestFilterDeltaCountsWrites(t *testing.T) {
	p := makeParam(1, 4)
	th := NewThreshold()
	delta := tensor.FromSlice(1, 4, []float64{1.0, 0.005, 0.02, 0})
	th.FilterDelta(p, delta)
	st := th.Stats()
	if st.Proposed != 3 { // the exact zero is not a proposed write
		t.Errorf("Proposed = %d, want 3", st.Proposed)
	}
	if st.Written != 2 {
		t.Errorf("Written = %d, want 2", st.Written)
	}
	if got := st.WriteReduction(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("WriteReduction = %v", got)
	}
	wa := th.WriteAmount(p)
	if wa.Data[0] != 1 || wa.Data[2] != 1 || wa.Data[1] != 0 {
		t.Errorf("write amounts = %v", wa.Data)
	}
}

func TestWriteAmountAccumulates(t *testing.T) {
	p := makeParam(1, 2)
	th := NewThreshold()
	for i := 0; i < 5; i++ {
		delta := tensor.FromSlice(1, 2, []float64{1.0, 0.001})
		th.FilterDelta(p, delta)
	}
	wa := th.WriteAmount(p)
	if wa.Data[0] != 5 || wa.Data[1] != 0 {
		t.Errorf("write amounts = %v", wa.Data)
	}
}

func TestAdaptiveThresholdSuppressesHotCells(t *testing.T) {
	p := makeParam(1, 2)
	th := NewThreshold()
	th.Adaptive = 500 // aggressive: heavily-written cells get huge thresholds
	// Cell 0 gets written many times.
	for i := 0; i < 20; i++ {
		delta := tensor.FromSlice(1, 2, []float64{1.0, 0.0})
		th.FilterDelta(p, delta)
	}
	// Now a moderate update to both: cell 0's threshold is inflated by
	// its history, cell 1's is not.
	delta := tensor.FromSlice(1, 2, []float64{0.05, 0.05})
	th.FilterDelta(p, delta)
	if delta.Data[0] != 0 {
		t.Errorf("hot cell update survived adaptive threshold: %v", delta.Data[0])
	}
	if delta.Data[1] == 0 {
		t.Error("cold cell update was suppressed")
	}
}

func TestZeroDeltaIsNoop(t *testing.T) {
	p := makeParam(2, 2)
	th := NewThreshold()
	delta := tensor.NewDense(2, 2)
	th.FilterDelta(p, delta)
	if st := th.Stats(); st.Proposed != 0 || st.Written != 0 {
		t.Errorf("stats on zero delta: %+v", st)
	}
}

func TestDeltaHistogram(t *testing.T) {
	delta := tensor.FromSlice(1, 5, []float64{1.0, -0.5, 0.25, 0.1, 0})
	h := DeltaHistogram(delta, 4)
	// ratios: 1.0, 0.5, 0.25, 0.1, 0 → bins 3, 2, 1, 0, 0
	want := []int{2, 1, 1, 1}
	for i, v := range want {
		if h[i] != v {
			t.Errorf("bin %d = %d, want %d (hist %v)", i, h[i], v, h)
		}
	}
}

func TestFractionBelow(t *testing.T) {
	delta := tensor.FromSlice(1, 4, []float64{1.0, 0.005, 0.009, 0.5})
	got := FractionBelow(delta, 0.01)
	if got != 0.5 {
		t.Errorf("FractionBelow = %v, want 0.5", got)
	}
}

func TestThresholdTrainingStillLearns(t *testing.T) {
	// Threshold training must converge on a separable problem while
	// issuing far fewer writes than the baseline.
	rng := xrand.New(20)
	net := nn.NewNetwork(
		nn.NewDenseHe("fc1", 2, 8, rng),
		nn.NewTanh("t"),
		nn.NewDenseHe("fc2", 8, 2, rng),
	)
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	loss := &nn.SoftmaxCrossEntropy{}
	th := NewThreshold()
	th.Theta = 0.25
	opt := nn.NewSGD(0.3)
	opt.Momentum = 0.9
	opt.Policy = th
	for i := 0; i < 1200; i++ {
		loss.Loss(net.Forward(x), labels)
		net.ZeroGrads()
		net.Backward(loss.Grad(labels))
		opt.Step(net.Params())
	}
	if acc := net.Accuracy(x, labels); acc != 1 {
		t.Errorf("XOR accuracy with threshold training = %v", acc)
	}
	if red := th.Stats().WriteReduction(); red >= 0.9 {
		t.Errorf("write reduction %v — threshold barely filtered anything", red)
	}
}

func TestFilterDeltasGlobalMax(t *testing.T) {
	// The batch path uses the global max across parameters: a layer
	// whose own max is small gets filtered entirely when another layer
	// dominates the iteration.
	pBig := makeParam(1, 2)
	pSmall := makeParam(1, 2)
	th := NewThreshold() // theta 0.01
	dBig := tensor.FromSlice(1, 2, []float64{100, 50})
	dSmall := tensor.FromSlice(1, 2, []float64{0.5, 0.9})
	th.FilterDeltas([]*nn.Param{pBig, pSmall}, []*tensor.Dense{dBig, dSmall})
	// global max 100 → threshold 1.0: the small layer dies entirely.
	if dSmall.Data[0] != 0 || dSmall.Data[1] != 0 {
		t.Errorf("small layer survived global threshold: %v", dSmall.Data)
	}
	if dBig.Data[0] != 100 || dBig.Data[1] != 50 {
		t.Errorf("big layer was filtered: %v", dBig.Data)
	}
	// Per-parameter path would have kept the small layer's 0.9.
	p2 := makeParam(1, 2)
	d2 := tensor.FromSlice(1, 2, []float64{0.5, 0.9})
	NewThreshold().FilterDelta(p2, d2)
	if d2.Data[1] != 0.9 {
		t.Errorf("per-layer path filtered its own max: %v", d2.Data)
	}
}

func TestQuantileThreshold(t *testing.T) {
	p := makeParam(1, 10)
	th := NewThreshold()
	th.Quantile = 0.8 // keep only the top ~20%
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	delta := tensor.FromSlice(1, 10, data)
	th.FilterDeltas([]*nn.Param{p}, []*tensor.Dense{delta})
	kept := 0
	for _, v := range delta.Data {
		if v != 0 {
			kept++
		}
	}
	if kept < 1 || kept > 3 {
		t.Errorf("quantile 0.8 kept %d of 10 entries: %v", kept, delta.Data)
	}
	// The survivors must be the largest entries.
	if delta.Data[9] == 0 {
		t.Error("largest entry was filtered")
	}
}

func TestQuantileIgnoresZeros(t *testing.T) {
	// Exact-zero entries (never written anyway) must not drag the
	// quantile threshold down.
	p := makeParam(1, 100)
	th := NewThreshold()
	th.Quantile = 0.5
	delta := tensor.NewDense(1, 100)
	for i := 0; i < 10; i++ {
		delta.Data[i] = float64(i + 1) // 10 nonzero entries, 90 zeros
	}
	th.FilterDeltas([]*nn.Param{p}, []*tensor.Dense{delta})
	kept := 0
	for _, v := range delta.Data {
		if v != 0 {
			kept++
		}
	}
	if kept > 7 {
		t.Errorf("quantile over nonzero entries kept %d, want ~5", kept)
	}
	if kept == 0 {
		t.Error("quantile filtered everything")
	}
}

func TestWriteReductionEmpty(t *testing.T) {
	var s Stats
	if s.WriteReduction() != 0 {
		t.Error("empty stats must report 0, not NaN")
	}
}

func TestFilterDeltasViaSGD(t *testing.T) {
	// SGD must route *Threshold through the BatchPolicy path.
	rng := xrand.New(30)
	net := nn.NewNetwork(nn.NewDenseHe("fc", 4, 3, rng))
	th := NewThreshold()
	th.Quantile = 0.5
	opt := nn.NewSGD(0.1)
	opt.Policy = th
	x := tensor.NewDense(2, 4)
	x.Fill(1)
	loss := &nn.SoftmaxCrossEntropy{}
	loss.Loss(net.Forward(x), []int{0, 1})
	net.ZeroGrads()
	net.Backward(loss.Grad([]int{0, 1}))
	opt.Step(net.Params())
	if th.Stats().Proposed == 0 {
		t.Fatal("threshold policy never saw the step")
	}
	if th.Stats().Written >= th.Stats().Proposed {
		t.Error("quantile 0.5 filtered nothing")
	}
}

// TestSelectNthMatchesSort: the quantile threshold's selection returns
// exactly the value sort-then-index returns, on samples with many
// duplicates and ties (values drawn from a small alphabet), NaNs and
// lengths 1–5000, at every kind of index.
func TestSelectNthMatchesSort(t *testing.T) {
	testkit.ForAll(t, testkit.Config{Trials: 300, MaxSize: 5000}, func(g *testkit.Gen) error {
		n := g.Dim(1, 5000)
		distinct := g.OneOf(1, 2, 3, 17, n)
		alphabet := make([]float64, distinct)
		for i := range alphabet {
			alphabet[i] = g.FloatRange(0, 1)
			if g.Bool(0.05) {
				alphabet[i] = math.NaN()
			}
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = alphabet[g.Intn(distinct)]
		}
		idx := g.OneOf(0, n-1, n/2, int(0.9*float64(n)), g.Intn(n))
		g.Logf("n=%d distinct=%d idx=%d", n, distinct, idx)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		got := selectNth(xs, idx)
		if want := sorted[idx]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			return fmt.Errorf("selectNth = %v, sort then index = %v", got, want)
		}
		return nil
	})
}
