package mapping

import (
	"fmt"
	"math"
	"testing"

	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/prune"
	"rramft/internal/rram"
	"rramft/internal/tensor"
	"rramft/internal/testkit"
	"rramft/internal/xrand"
)

// picker is the source of choices a mutation sequence draws from:
// testkit.Gen in the property test, the fuzz input in FuzzStoreMirror.
type picker interface {
	Intn(n int) int
}

// pickFloat returns a value in [lo, hi] on a 1/1000 grid.
func pickFloat(p picker, lo, hi float64) float64 {
	return lo + (hi-lo)*float64(p.Intn(1001))/1000
}

// scratchRead reconstructs the effective logical weights from the cells,
// sign registers, mask and permutations alone — the definition the
// store's mirror must match bit for bit.
func scratchRead(s *CrossbarStore) *tensor.Dense {
	out := tensor.NewDense(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			li := i*s.cols + j
			if !s.Kept(i, j) {
				continue
			}
			w := s.cb.EffectiveLevel(s.rowPerm[i], s.colPerm[j]) * s.levelScale
			if s.sign[li] < 0 {
				w = -w
			}
			out.Data[li] = w
		}
	}
	return out
}

// checkMirror compares Read against scratchRead bit for bit.
func checkMirror(s *CrossbarStore) error {
	got, want := s.Read(), scratchRead(s)
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			return fmt.Errorf("entry (%d,%d): mirror %v, cells %v", k/s.cols, k%s.cols, got.Data[k], want.Data[k])
		}
	}
	return nil
}

// mirrorRig drives one store through a random interleaving of every
// mutator that can change what Read returns: crossbar-level writes, fault
// flips, drift and restores (the chaos and detection paths), and the
// store's own training, repair and re-mapping operations.
type mirrorRig struct {
	s       *CrossbarStore
	ref     *tensor.Dense // golden image for the repair stages
	cbSnap  *rram.State
	stSnap  *StoreState
	failRNG *xrand.Stream
}

func newMirrorRig(p picker, rows, cols int, seed int64) *mirrorRig {
	w := tensor.NewDense(rows, cols)
	for i := range w.Data {
		w.Data[i] = pickFloat(p, -1, 1)
	}
	cfg := StoreConfig{
		// A finite endurance budget of a few dozen writes, so wear-out
		// turns cells stuck in the middle of a sequence.
		Crossbar:        rram.Config{Levels: 8, WriteStd: 0.1, Endurance: fault.EnduranceModel{Mean: 30, Std: 10, WearSA0Prob: 0.5}},
		MaxWriteRetries: p.Intn(3),
	}
	rng := xrand.New(seed)
	s := NewCrossbarStore("mirror", w, cfg, rng.Split("store"))
	return &mirrorRig{
		s:       s,
		ref:     s.WeightSnapshot(),
		cbSnap:  s.Crossbar().Snapshot(),
		stSnap:  s.Snapshot(),
		failRNG: rng.Split("writefail"),
	}
}

// mirrorOps names the mutations step can apply, in op-code order.
var mirrorOps = []string{
	"cb.Write", "cb.WriteVerified", "cb.SetWriteFail", "cb.SetFault",
	"cb.InjectFaults", "cb.Drift", "cb.Snapshot", "cb.Restore",
	"RunDetection", "ApplyDelta", "SetPruneMask", "SetRowPerm",
	"SetColPerm", "RestoreReference", "DisconnectDeviants",
	"DisconnectEstimatedFaults", "RetestEstimatedFaults", "Snapshot",
	"Restore",
}

// step applies mutation op with parameters drawn from p.
func (m *mirrorRig) step(p picker, op int) error {
	s, cb := m.s, m.s.Crossbar()
	rows, cols := s.Shape()
	max := cb.MaxLevel()
	switch mirrorOps[op] {
	case "cb.Write":
		cb.Write(p.Intn(rows), p.Intn(cols), pickFloat(p, -1, max+1))
	case "cb.WriteVerified":
		cb.WriteVerified(p.Intn(rows), p.Intn(cols), pickFloat(p, 0, max), 1+p.Intn(3), 0)
	case "cb.SetWriteFail":
		// Toggle certain write failure: WriteVerified gives up and marks
		// the cell stuck, plain writes leave the level unchanged.
		if p.Intn(2) == 0 {
			cb.SetWriteFail(1, m.failRNG)
		} else {
			cb.SetWriteFail(0, nil)
		}
	case "cb.SetFault":
		// Setting None clears a fault: the intermittent-fault flip path.
		cb.SetFault(p.Intn(rows), p.Intn(cols), []fault.Kind{fault.None, fault.SA0, fault.SA1}[p.Intn(3)])
	case "cb.InjectFaults":
		fm := fault.NewMap(rows, cols)
		for n := 1 + p.Intn(3); n > 0; n-- {
			fm.Set(p.Intn(rows), p.Intn(cols), []fault.Kind{fault.SA0, fault.SA1}[p.Intn(2)])
		}
		cb.InjectFaults(fm)
	case "cb.Drift":
		cb.Drift(pickFloat(p, 0.8, 1.2))
	case "cb.Snapshot":
		m.cbSnap = cb.Snapshot()
	case "cb.Restore":
		if err := cb.Restore(m.cbSnap); err != nil {
			return err
		}
	case "RunDetection":
		s.RunDetection(detect.Config{TestSize: 1 + p.Intn(4), Divisor: 16, Delta: 1})
	case "ApplyDelta":
		d := tensor.NewDense(rows, cols)
		for n := 1 + p.Intn(rows*cols); n > 0; n-- {
			d.Data[p.Intn(rows*cols)] = pickFloat(p, -0.5, 0.5)
		}
		s.ApplyDelta(d)
	case "SetPruneMask":
		if p.Intn(4) == 0 {
			s.SetPruneMask(nil)
			break
		}
		mask := prune.NewMask(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mask.Set(i, j, p.Intn(4) != 0)
			}
		}
		s.SetPruneMask(mask)
	case "SetRowPerm":
		s.SetRowPerm(pickPerm(p, rows))
	case "SetColPerm":
		s.SetColPerm(pickPerm(p, cols))
	case "RestoreReference":
		s.RestoreReference(m.ref, pickFloat(p, 0, 1))
	case "DisconnectDeviants":
		s.DisconnectDeviants(m.ref, pickFloat(p, 0, 1))
	case "DisconnectEstimatedFaults":
		s.SetEstimatedFaults(cb.FaultMap())
		s.DisconnectEstimatedFaults()
	case "RetestEstimatedFaults":
		s.SetEstimatedFaults(cb.FaultMap())
		s.RetestEstimatedFaults(1)
	case "Snapshot":
		m.stSnap = s.Snapshot()
	case "Restore":
		if err := s.Restore(m.stSnap); err != nil {
			return err
		}
	}
	return nil
}

// pickPerm draws a permutation of [0, n) by Fisher–Yates.
func pickPerm(p picker, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// The mirror Read returns must equal a from-scratch reconstruction after
// any interleaving of crossbar-level and store-level mutations. Each step
// applies one to three mutations before checking, so mutations also land
// on a stale mirror.
func TestStoreMirrorCoherence(t *testing.T) {
	testkit.ForAll(t, testkit.Config{Trials: 150, Seed: 61, MaxSize: 12}, func(g *testkit.Gen) error {
		rows, cols := g.Dim(1, 12), g.Dim(1, 12)
		m := newMirrorRig(g, rows, cols, int64(g.Intn(1<<30)))
		g.Logf("store %dx%d retries=%d", rows, cols, m.s.maxWriteRetries)
		if err := checkMirror(m.s); err != nil {
			return fmt.Errorf("after construction: %w", err)
		}
		for step := 0; step < 10+4*g.Size(); step++ {
			for n := 1 + g.Intn(3); n > 0; n-- {
				op := g.Intn(len(mirrorOps))
				g.Logf("step %d: %s", step, mirrorOps[op])
				if err := m.step(g, op); err != nil {
					return fmt.Errorf("step %d %s: %w", step, mirrorOps[op], err)
				}
			}
			if err := checkMirror(m.s); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		return nil
	})
}

// A change made only through Crossbar() — the chaos engine's path — is
// visible on the very next Read, with no store call in between.
func TestStoreMirrorSeesCrossbarOnlyChanges(t *testing.T) {
	w := tensor.FromSlice(2, 2, []float64{0.5, -0.25, 0.75, -1})
	s := NewCrossbarStore("chaos", w, StoreConfig{WMax: 1, Crossbar: rram.Config{Levels: 5, Endurance: fault.Unlimited()}}, xrand.New(1))
	s.SetColPerm([]int{1, 0})
	s.Read() // current mirror
	// Logical (0,1) lives on physical (0,0) under the swapped columns.
	s.Crossbar().SetFault(0, 0, fault.SA1)
	if got := s.Read().At(0, 1); got != -1 {
		t.Fatalf("after SA1 flip Read(0,1) = %v, want -1", got)
	}
	s.Crossbar().SetFault(0, 0, fault.None)
	if got := s.Read().At(0, 1); got != -0.25 {
		t.Fatalf("after the flip cleared Read(0,1) = %v, want -0.25", got)
	}
	s.Crossbar().Drift(0.5)
	if got := s.Read().At(1, 0); got != 0.375 {
		t.Fatalf("after drift Read(1,0) = %v, want 0.375", got)
	}
	s.Crossbar().Write(1, 1, 4) // physical (1,1) holds logical (1,0)
	if got := s.Read().At(1, 0); got != 1 {
		t.Fatalf("after a crossbar write Read(1,0) = %v, want 1", got)
	}
	if err := checkMirror(s); err != nil {
		t.Fatal(err)
	}
}

// TestReadMirroredAllocFree is the mapping-side AllocsPerRun gate: Read on
// a current mirror returns it without allocating, and so does a rebuild
// after a crossbar-only change.
func TestReadMirroredAllocFree(t *testing.T) {
	obs.EnableMetrics()
	w := tensor.NewDense(16, 16)
	rng := xrand.New(3)
	for i := range w.Data {
		w.Data[i] = rng.Uniform(-1, 1)
	}
	s := NewCrossbarStore("alloc", w, DefaultStoreConfig(), rng.Split("cb"))
	s.Read()
	if n := testing.AllocsPerRun(200, func() { s.Read() }); n != 0 {
		t.Fatalf("mirrored Read allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		s.Crossbar().SetFault(0, 0, fault.None)
		s.Read()
	}); n != 0 {
		t.Fatalf("rebuilding Read allocates %.1f/op, want 0", n)
	}
}

// byteSource is a picker over fuzz input: a choice among n consumes one
// byte per 8 bits of n-1, big-endian, and an exhausted input reads zeros.
type byteSource struct{ data []byte }

func (b *byteSource) Intn(n int) int {
	v := 0
	for span := 1; span < n; span <<= 8 {
		v <<= 8
		if len(b.data) > 0 {
			v |= int(b.data[0])
			b.data = b.data[1:]
		}
	}
	return v % n
}

func (b *byteSource) done() bool { return len(b.data) == 0 }

// FuzzStoreMirror decodes the input into a store shape and a sequence of
// mutations (one op byte, then the op's parameter bytes) and checks after
// every mutation that the weight mirror equals a from-scratch
// reconstruction from the cells.
func FuzzStoreMirror(f *testing.F) {
	f.Add([]byte{3, 4, 0, 9, 1, 2, 3, 4, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		rows, cols := 1+src.Intn(6), 1+src.Intn(6)
		m := newMirrorRig(src, rows, cols, int64(src.Intn(256)))
		for step := 0; step < 64 && !src.done(); step++ {
			op := src.Intn(len(mirrorOps))
			if err := m.step(src, op); err != nil {
				t.Fatalf("step %d %s: %v", step, mirrorOps[op], err)
			}
			if err := checkMirror(m.s); err != nil {
				t.Fatalf("step %d %s: %v", step, mirrorOps[op], err)
			}
		}
	})
}
