// Package rram simulates an RRAM crossbar at the level of abstraction the
// paper's detection and training mathematics operate on: multi-level cells
// whose analog conductance is expressed in "level units" (8 programmable
// levels by default, following Xu et al. [17]), closed-loop writes with
// Gaussian programming variance, per-cell write-endurance budgets that turn
// worn-out cells into permanent stuck-at faults, and parallel row/column
// sensing used both for matrix-vector multiplication and for the
// quiescent-voltage test method.
//
// Conductance convention: level 0 is the high-resistance state (zero
// weight), level MaxLevel is the low-resistance state. A stuck-at-0 (SA0)
// cell reads level 0 forever; a stuck-at-1 (SA1) cell reads MaxLevel.
//
// MVM comes in per-sample (MVM/MVMInto) and batched (MVMBatch/
// MVMBatchInto) forms. The batched form drives B input vectors through
// one sweep of the conductance matrix — resolving each row's effective
// levels once for the whole batch — and is bit-identical to the
// per-sample loop by construction (same accumulation order, same
// zero-skip rule, sense noise drawn per sample in batch order); see
// DESIGN.md §7. The *Into variants write into caller-owned buffers and
// are allocation-free at steady state.
package rram

import (
	"fmt"
	"math"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/par"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// Registry mirrors of the per-crossbar Stats counters (DESIGN.md §10).
// The struct counters in Stats stay the source of truth for RunResult and
// the checkpoint format; these process-wide counters exist so a journal
// or the /debug/vars endpoint can watch write demand and wear-out
// accumulate across every crossbar of the process while a run is live.
// They are only bumped when obs.MetricsEnabled() — the telemetry-off hot
// path pays one atomic load per site.
var (
	cWrites        = obs.NewCounter("rram.writes")
	cWritesOnStuck = obs.NewCounter("rram.writes_on_stuck")
	cWearOuts      = obs.NewCounter("rram.wearouts")
	cMVMs          = obs.NewCounter("rram.mvms")
	cSenses        = obs.NewCounter("rram.senses")
)

// Config parameterizes a crossbar.
type Config struct {
	// Levels is the number of programmable conductance levels (≥2).
	// Cells hold analog values in [0, Levels-1].
	Levels int
	// WriteStd is the residual programming error (in level units) left
	// by a closed-loop write. The paper requires the test increment to
	// exceed this variance; the default of 0.1 satisfies that for the
	// one-level test increment.
	WriteStd float64
	// ReadNoiseStd adds zero-mean Gaussian noise (in level units) to
	// every analog sensing operation (SenseColumns/SenseRows/MVM per
	// output port), modelling sense-amplifier and line noise. Zero
	// disables it. Quantized ReadLevel operations are unaffected (the
	// off-chip read uses a slow, averaged ADC conversion).
	ReadNoiseStd float64
	// Endurance is the wear-out model for cells.
	Endurance fault.EnduranceModel
}

// DefaultConfig returns the 8-level, 0.1-variance, unlimited-endurance
// configuration.
func DefaultConfig() Config {
	return Config{Levels: 8, WriteStd: 0.1, Endurance: fault.Unlimited()}
}

// Stats aggregates write-traffic counters for lifetime experiments.
type Stats struct {
	// Writes is the number of physical write operations that landed on
	// healthy cells (each consumes endurance).
	Writes int64
	// AttemptedOnStuck counts write requests addressed to stuck cells;
	// they change nothing but the training loop still issues them.
	AttemptedOnStuck int64
	// WearOuts counts cells that turned stuck-at due to endurance.
	WearOuts int64
	// WriteRetries counts re-program attempts issued by WriteVerified
	// beyond each first attempt.
	WriteRetries int64
	// WriteGiveups counts cells WriteVerified degraded into tracked stuck
	// faults after exhausting its retry budget.
	WriteGiveups int64
	// WriteFails counts write pulses eaten by the stochastic write-failure
	// model (SetWriteFail).
	WriteFails int64
	// ReadDisturbs counts analog output-port readings corrupted by the
	// read-disturb model (SetReadDisturb).
	ReadDisturbs int64
}

// Crossbar is a rows×cols array of simulated RRAM cells.
//
// Concurrency invariant: a Crossbar is NOT safe for concurrent use. Its
// write path mutates the stats/writes counters and its sensing path
// consumes the crossbar's private RNG stream, so every crossbar must be
// confined to one worker goroutine at a time. The per-tile parallelism in
// internal/mapping honours this by dispatching whole tiles — each tile
// owns its crossbar and its RNG (split per tile at construction), so
// inter-tile scheduling never changes any tile's random draws. MVM's
// *internal* column-blocked parallelism is compatible with the invariant:
// its fan-out only reads cell state, and the RNG-consuming sense noise is
// applied serially on the owning goroutine after the join.
type Crossbar struct {
	RowsN, ColsN int
	cfg          Config

	level  []float64    // programmed analog level per cell
	kind   []fault.Kind // hard-fault state per cell
	writes []float64    // cumulative write count per cell
	budget []float64    // endurance budget per cell

	rng   *xrand.Stream
	stats Stats

	// gen counts mutations of level or kind; see Gen.
	gen uint64

	// dyn holds the opt-in runtime fault dynamics (read disturb, write
	// failures); nil — the default — disables them all and consumes no RNG.
	// See dynamics.go. Deliberately excluded from Snapshot/Restore: chaos
	// campaigns are re-armed by their schedule, not resurrected from
	// checkpoints.
	dyn *dynamics

	// mvmScratch caches one row of effective levels during batched MVMs.
	// It is owned by the crossbar (single-owner invariant above) and lazily
	// sized to ColsN; parallel column blocks write disjoint ranges of it.
	mvmScratch []float64
}

// New builds a crossbar with all cells healthy at level 0. Endurance
// budgets are sampled from cfg.Endurance using rng.
func New(rows, cols int, cfg Config, rng *xrand.Stream) *Crossbar {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("rram: invalid crossbar size %dx%d", rows, cols))
	}
	if cfg.Levels < 2 {
		panic(fmt.Sprintf("rram: need >=2 levels, got %d", cfg.Levels))
	}
	n := rows * cols
	cb := &Crossbar{
		RowsN: rows, ColsN: cols, cfg: cfg,
		level:  make([]float64, n),
		kind:   make([]fault.Kind, n),
		writes: make([]float64, n),
		budget: make([]float64, n),
		rng:    rng,
	}
	for i := range cb.budget {
		cb.budget[i] = cfg.Endurance.SampleBudget(rng)
	}
	return cb
}

// Rows returns the row count.
func (cb *Crossbar) Rows() int { return cb.RowsN }

// Cols returns the column count.
func (cb *Crossbar) Cols() int { return cb.ColsN }

// Config returns the crossbar configuration.
func (cb *Crossbar) Config() Config { return cb.cfg }

// MaxLevel returns the highest programmable level (Levels-1) as a float.
func (cb *Crossbar) MaxLevel() float64 { return float64(cb.cfg.Levels - 1) }

// Stats returns a copy of the write-traffic counters.
func (cb *Crossbar) Stats() Stats { return cb.stats }

// Gen returns the crossbar's mutation generation: a counter that advances
// on every call that may change a cell's programmed level or fault state
// (Write and WriteDelta reaching a healthy cell, a WriteVerified giveup,
// SetFault, InjectFaults, a Drift that moved a cell, Restore). A cache
// derived from cell state is current exactly while the generation it
// recorded equals Gen(); mapping.CrossbarStore keeps its weight mirror
// coherent this way. The counter is not part of the snapshot state.
func (cb *Crossbar) Gen() uint64 { return cb.gen }

func (cb *Crossbar) idx(r, c int) int { return r*cb.ColsN + c }

// Fault returns the hard-fault state of cell (r, c).
func (cb *Crossbar) Fault(r, c int) fault.Kind { return cb.kind[cb.idx(r, c)] }

// SetFault forces the fault state of cell (r, c) — used for fabrication
// defect injection and by tests.
func (cb *Crossbar) SetFault(r, c int, k fault.Kind) {
	cb.kind[cb.idx(r, c)] = k
	cb.gen++
}

// InjectFaults copies every fault in m onto the crossbar. The map must
// match the crossbar dimensions.
func (cb *Crossbar) InjectFaults(m *fault.Map) {
	if m.Rows != cb.RowsN || m.Cols != cb.ColsN {
		panic(fmt.Sprintf("rram: fault map %dx%d on crossbar %dx%d", m.Rows, m.Cols, cb.RowsN, cb.ColsN))
	}
	for i, k := range m.Kinds {
		if k.IsFault() {
			cb.kind[i] = k
		}
	}
	cb.gen++
}

// FaultMap snapshots the ground-truth fault state. Detection experiments
// score predictions against this.
func (cb *Crossbar) FaultMap() *fault.Map {
	m := fault.NewMap(cb.RowsN, cb.ColsN)
	copy(m.Kinds, cb.kind)
	return m
}

// FaultFraction returns the fraction of cells with hard faults.
func (cb *Crossbar) FaultFraction() float64 {
	n := 0
	for _, k := range cb.kind {
		if k.IsFault() {
			n++
		}
	}
	return float64(n) / float64(len(cb.kind))
}

// EffectiveLevel returns the conductance level the array actually presents
// at (r, c): 0 for SA0, MaxLevel for SA1, the programmed analog level
// otherwise.
func (cb *Crossbar) EffectiveLevel(r, c int) float64 {
	i := cb.idx(r, c)
	switch cb.kind[i] {
	case fault.SA0:
		return 0
	case fault.SA1:
		return cb.MaxLevel()
	default:
		return cb.level[i]
	}
}

// ProgrammedLevel returns the level most recently programmed, ignoring the
// fault state. This is the controller's intent, not what the array presents.
func (cb *Crossbar) ProgrammedLevel(r, c int) float64 { return cb.level[cb.idx(r, c)] }

// ReadLevel performs the quantized off-chip read used at the start of the
// test phase: the effective level digitized to the nearest integer level.
func (cb *Crossbar) ReadLevel(r, c int) int {
	v := math.Round(cb.EffectiveLevel(r, c))
	if v < 0 {
		v = 0
	}
	if v > cb.MaxLevel() {
		v = cb.MaxLevel()
	}
	return int(v)
}

// Write performs a closed-loop programming operation driving cell (r, c)
// toward target (clamped to the level range). Writes to stuck cells change
// nothing. A successful write consumes one unit of the cell's endurance
// budget; exceeding the budget makes the cell permanently stuck before the
// write lands.
func (cb *Crossbar) Write(r, c int, target float64) {
	i := cb.idx(r, c)
	if cb.kind[i].IsFault() {
		cb.stats.AttemptedOnStuck++
		if obs.MetricsEnabled() {
			cWritesOnStuck.Inc()
		}
		return
	}
	cb.gen++
	cb.writes[i]++
	cb.stats.Writes++
	if obs.MetricsEnabled() {
		cWrites.Inc()
	}
	if cb.writes[i] > cb.budget[i] {
		cb.kind[i] = cb.cfg.Endurance.WearKind(cb.rng)
		cb.stats.WearOuts++
		if obs.MetricsEnabled() {
			cWearOuts.Inc()
		}
		return
	}
	if cb.writeFailed() {
		return
	}
	max := cb.MaxLevel()
	if target < 0 {
		target = 0
	} else if target > max {
		target = max
	}
	// The residual programming error is symmetric around the target even
	// at the range boundaries: "level 0" is the nominal HRS conductance,
	// and device-to-device spread around it goes both ways. Clamping the
	// noise would bias group-test sums at the floor.
	cb.level[i] = target + cb.rng.Gaussian(0, cb.cfg.WriteStd)
}

// WriteDelta programs cell (r, c) to its current programmed level plus
// delta — the "Write +δw"/"Write −δw" test operation.
func (cb *Crossbar) WriteDelta(r, c int, delta float64) {
	cb.Write(r, c, cb.level[cb.idx(r, c)]+delta)
}

// CellWrites returns the cumulative write count of cell (r, c).
func (cb *Crossbar) CellWrites(r, c int) float64 { return cb.writes[cb.idx(r, c)] }

// SenseColumns drives the given rows with the test voltage and returns the
// analog sum of effective levels observed at every column output port —
// one test cycle of the quiescent-voltage method (or one step of an MVM).
func (cb *Crossbar) SenseColumns(rows []int) []float64 {
	if obs.MetricsEnabled() {
		cSenses.Inc()
	}
	out := make([]float64, cb.ColsN)
	for _, r := range rows {
		base := r * cb.ColsN
		for c := 0; c < cb.ColsN; c++ {
			out[c] += cb.effAt(base + c)
		}
	}
	cb.addSenseNoise(out)
	return out
}

// SenseRows drives the given columns (the crossbar is usable in both
// directions) and returns the analog sum at every row output port.
func (cb *Crossbar) SenseRows(cols []int) []float64 {
	if obs.MetricsEnabled() {
		cSenses.Inc()
	}
	out := make([]float64, cb.RowsN)
	for r := 0; r < cb.RowsN; r++ {
		base := r * cb.ColsN
		var sum float64
		for _, c := range cols {
			sum += cb.effAt(base + c)
		}
		out[r] = sum
	}
	cb.addSenseNoise(out)
	return out
}

// addSenseNoise perturbs each analog output port reading: Gaussian sense
// noise from the crossbar's main RNG, then any transient read-disturb
// corruption from its dedicated stream (dynamics.go).
func (cb *Crossbar) addSenseNoise(out []float64) {
	if cb.cfg.ReadNoiseStd > 0 {
		for i := range out {
			out[i] += cb.rng.Gaussian(0, cb.cfg.ReadNoiseStd)
		}
	}
	cb.disturb(out)
}

func (cb *Crossbar) effAt(i int) float64 {
	switch cb.kind[i] {
	case fault.SA0:
		return 0
	case fault.SA1:
		return cb.MaxLevel()
	default:
		return cb.level[i]
	}
}

// MVM computes the analog matrix-vector product out[c] = Σ_r in[r]·g[r][c]
// over effective levels — the crossbar's native compute primitive. The
// column ports accumulate in parallel (they are physically independent
// sense amplifiers); each port sums rows in ascending order whatever the
// worker count, so the result is byte-identical to a serial evaluation.
func (cb *Crossbar) MVM(in []float64) []float64 {
	out := make([]float64, cb.ColsN)
	cb.MVMInto(out, in)
	return out
}

// MVMInto is MVM writing into a caller-provided output of length Cols().
// It is allocation-free on the serial path (RRAMFT_WORKERS=1), which the
// AllocsPerRun gates pin; results are byte-identical to MVM.
func (cb *Crossbar) MVMInto(out, in []float64) {
	if len(in) != cb.RowsN {
		panic(fmt.Sprintf("rram: MVM input length %d, want %d", len(in), cb.RowsN))
	}
	if len(out) != cb.ColsN {
		panic(fmt.Sprintf("rram: MVM output length %d, want %d", len(out), cb.ColsN))
	}
	if obs.MetricsEnabled() {
		cMVMs.Inc()
	}
	for c := range out {
		out[c] = 0
	}
	g := mvmGrain(cb.RowsN)
	if par.Serial(cb.ColsN, g) {
		cb.mvmCols(out, in, 0, cb.ColsN)
	} else {
		par.For(cb.ColsN, g, func(c0, c1 int) {
			cb.mvmCols(out, in, c0, c1)
		})
	}
	cb.addSenseNoise(out)
}

// mvmCols accumulates output ports [c0, c1) of one MVM, summing rows in
// ascending order and skipping zero drive voltages — the accumulation
// contract every MVM variant (serial, parallel, batched) shares.
func (cb *Crossbar) mvmCols(out, in []float64, c0, c1 int) {
	for r, v := range in {
		if v == 0 {
			continue
		}
		base := r * cb.ColsN
		for c := c0; c < c1; c++ {
			out[c] += v * cb.effAt(base+c)
		}
	}
}

// MVMBatch computes B matrix-vector products in one pass: row b of the
// returned B×Cols() matrix is MVM(in.Row(b)). See MVMBatchInto.
func (cb *Crossbar) MVMBatch(in *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(in.Rows, cb.ColsN)
	cb.MVMBatchInto(out, in)
	return out
}

// MVMBatchInto computes dst.Row(b) = MVM(in.Row(b)) for every row of the
// B×Rows() input batch in a single column-blocked pass over the
// conductance matrix: each block loads a row's effective levels once into
// the crossbar-owned scratch and streams all B drive vectors through it,
// amortizing the per-cell fault/level resolution over the batch. dst must
// be B×Cols().
//
// Equivalence contract: the result is byte-identical to calling MVM once
// per row in batch order. Every (b, c) output accumulates rows in
// ascending order with the same zero-skip rule and the same per-element
// multiply as MVM, and sense noise is drawn per sample in batch order
// after the compute join — the exact RNG consumption of the per-sample
// loop. The batched-vs-per-sample differential tests pin this bitwise.
//
// Steady-state calls are allocation-free (the scratch is reused across
// calls); like every Crossbar method it must only be called by the
// crossbar's owning goroutine.
func (cb *Crossbar) MVMBatchInto(dst, in *tensor.Dense) {
	if in.Cols != cb.RowsN {
		panic(fmt.Sprintf("rram: MVMBatch input width %d, want %d", in.Cols, cb.RowsN))
	}
	if dst.Rows != in.Rows || dst.Cols != cb.ColsN {
		panic(fmt.Sprintf("rram: MVMBatch dst %dx%d, want %dx%d", dst.Rows, dst.Cols, in.Rows, cb.ColsN))
	}
	if obs.MetricsEnabled() {
		cMVMs.Add(int64(in.Rows))
	}
	if cap(cb.mvmScratch) < cb.ColsN {
		cb.mvmScratch = make([]float64, cb.ColsN)
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	g := mvmGrain(cb.RowsN * in.Rows)
	if par.Serial(cb.ColsN, g) {
		cb.mvmBatchCols(dst, in, 0, cb.ColsN)
	} else {
		par.For(cb.ColsN, g, func(c0, c1 int) {
			cb.mvmBatchCols(dst, in, c0, c1)
		})
	}
	for b := 0; b < dst.Rows; b++ {
		cb.addSenseNoise(dst.Row(b))
	}
}

// mvmBatchCols accumulates output ports [c0, c1) for every sample of the
// batch. The effective levels of row r are resolved once into the shared
// scratch (parallel blocks own disjoint column ranges of it), then each
// sample's drive voltage streams through them. Accumulation per (b, c)
// matches mvmCols exactly: r-ascending, zero drives skipped, one multiply
// per term.
func (cb *Crossbar) mvmBatchCols(dst, in *tensor.Dense, c0, c1 int) {
	eff := cb.mvmScratch[:cb.ColsN]
	for r := 0; r < cb.RowsN; r++ {
		base := r * cb.ColsN
		for c := c0; c < c1; c++ {
			eff[c] = cb.effAt(base + c)
		}
		for b := 0; b < in.Rows; b++ {
			v := in.Data[b*in.Cols+r]
			if v == 0 {
				continue
			}
			drow := dst.Data[b*dst.Cols : b*dst.Cols+dst.Cols]
			for c := c0; c < c1; c++ {
				drow[c] += v * eff[c]
			}
		}
	}
}

// mvmGrain sizes the column blocks so one block covers ~16k cells.
func mvmGrain(rows int) int {
	const targetCells = 16 << 10
	if rows <= 0 {
		return 1
	}
	g := targetCells / rows
	if g < 1 {
		g = 1
	}
	return g
}

// AvgWritesPerCell returns the mean cumulative write count.
func (cb *Crossbar) AvgWritesPerCell() float64 {
	var sum float64
	for _, w := range cb.writes {
		sum += w
	}
	return sum / float64(len(cb.writes))
}
