package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/metrics"
	"rramft/internal/remap"
	"rramft/internal/rram"
	"rramft/internal/train"
	"rramft/internal/xrand"
)

// The quick Fig. 7(a) configuration of internal/exp (cnnScale(Quick) and
// ftTrainCfg), rebuilt through the public core API: the entire CNN on
// crossbars with 10% fabrication faults and endurance equal to the
// iteration budget, trained with the complete fault-tolerant flow.
const (
	ftTrainN      = 500
	ftTestN       = 150
	ftIters       = 400
	ftEvalPoints  = 5
	ftDetectEvery = 100
	ftFaults      = 0.10
	// ftWarmupIters is the warm-up session set-up runs before timing.
	ftWarmupIters = 40
)

func ftData(seed int64) *dataset.Dataset {
	dc := dataset.CIFARLike(seed)
	dc.TrainN, dc.TestN = ftTrainN, ftTestN
	return dataset.Generate(dc)
}

// ftModel builds the entire-CNN-on-RCS model of Fig. 7(a).
func ftModel(ds *dataset.Dataset, seed int64) *core.Model {
	opts := core.DefaultBuildOptions(seed)
	opts.OnRCS, opts.ConvOnRCS = true, true
	mean := float64(ftIters)
	opts.Store = mapping.StoreConfig{
		Crossbar:     rram.Config{Levels: 8, WriteStd: 0.05, Endurance: fault.EnduranceModel{Mean: mean, Std: 0.3 * mean, WearSA0Prob: 0.5}},
		WMaxHeadroom: 1.5,
	}
	opts.InitialFaultFrac = ftFaults
	opts.FCSparsity, opts.ConvSparsity = 0.6, 0.2
	c := ds.Config
	return core.BuildCNN(c.C, c.H, c.W, c.Classes, opts)
}

// ftConfig is the Fig. 2 flow: threshold training at quantile 0.9,
// off-line plus periodic on-line detection, fault-aware pruning and
// genetic re-mapping over the first two phases.
func ftConfig(seed int64, iters int) core.TrainConfig {
	cfg := core.DefaultTrainConfig(seed, iters)
	cfg.LR, cfg.Momentum, cfg.LRDecay, cfg.BatchSize = 0.02, 0.9, 0, 16
	cfg.EvalEvery = iters / ftEvalPoints
	th := train.NewThreshold()
	th.Quantile = 0.9
	cfg.Threshold = th
	d := detect.DefaultConfig()
	d.TestSize = 4
	cfg.Detect = &d
	cfg.DetectEvery = ftDetectEvery
	cfg.OfflineDetect = true
	cfg.FaultAwarePruning = true
	cfg.Remap = remap.Genetic{Pop: 16, Gens: 40}
	cfg.RemapPhases = 2
	return cfg
}

// ftSessionSeconds is roughly how long one session takes on a 2-vCPU
// host; a run holds --seconds / ftSessionSeconds sessions (at least one).
const ftSessionSeconds = 3.3

// trainFixture holds one dataset per session: session k trains on data
// and fabrication faults derived from (seed, k), so a run's figures
// average over several models rather than hang on one draw.
type trainFixture struct {
	seeds  []int64
	data   []*dataset.Dataset
	warmup *core.RunResult
}

func setupTrain(o *options) *trainFixture {
	fx := &trainFixture{}
	for k := 0; k < max(1, int(o.seconds/ftSessionSeconds)); k++ {
		seed := xrand.DeriveSeed(o.seed, fmt.Sprintf("perfbench/train-ft/session-%d", k))
		fx.seeds = append(fx.seeds, seed)
		fx.data = append(fx.data, ftData(seed))
	}
	fx.warmup = core.Train(ftModel(fx.data[0], fx.seeds[0]), fx.data[0], ftConfig(fx.seeds[0], ftWarmupIters))
	return fx
}

// segmentClock is a session's core.TrainConfig.Log writer. core.Train
// writes one line per accuracy evaluation, every ftIters/ftEvalPoints
// iterations, so the times of the writes split a session into segments
// of equal iteration count.
type segmentClock struct {
	wall []int64
	cpu  []time.Duration
}

func (c *segmentClock) Write(p []byte) (int, error) {
	c.wall = append(c.wall, now())
	c.cpu = append(c.cpu, cpuNow())
	return len(p), nil
}

// session is one complete Fig. 2 training run.
type session struct {
	start, end int64
	segWall    []int64
	segCPU     []time.Duration
	res        *core.RunResult
}

// trainRun is the timed flow: the fixture's sessions back to back. last
// is the model the final session trained; earlier ones are dropped.
type trainRun struct {
	sessions []session
	last     *core.Model
	rt       [2]runtimeSample
	jspans   []journalSpan
	jcount   map[string]int64
}

func trainFlow(o *options, fx *trainFixture, traced bool) (*trainRun, error) {
	run := &trainRun{}
	var jl *journal
	if traced {
		jl = startJournal("train-ft", o.seed)
	}
	run.rt[0] = readRuntime()
	for k, seed := range fx.seeds {
		ds := fx.data[k]
		m := ftModel(ds, seed)
		clk := &segmentClock{}
		cfg := ftConfig(seed, ftIters)
		cfg.Log = clk
		s := session{}
		s.start = now()
		cpu0 := cpuNow()
		s.res = core.Train(m, ds, cfg)
		s.end = now()
		prevWall, prevCPU := s.start, cpu0
		for j := range clk.wall {
			s.segWall = append(s.segWall, clk.wall[j]-prevWall)
			s.segCPU = append(s.segCPU, clk.cpu[j]-prevCPU)
			prevWall, prevCPU = clk.wall[j], clk.cpu[j]
		}
		run.sessions = append(run.sessions, s)
		run.last = m
	}
	run.rt[1] = readRuntime()
	if jl != nil {
		var err error
		if run.jspans, run.jcount, err = jl.close(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// trainFigures fills the end-to-end metrics of a training flow. Every
// session has the same segments, so each segment's time is taken as its
// fastest over the run's sessions: the host's speed swings only ever slow
// a segment down. Goodput is iterations per second of the resulting
// session; latency is the per-iteration time of its median and slowest
// segment.
func trainFigures(rep *report, run *trainRun) {
	segs := len(run.sessions[0].segWall)
	bestWall := make([]float64, segs)
	bestCPU := make([]float64, segs)
	for j := 0; j < segs; j++ {
		bestWall[j], bestCPU[j] = math.Inf(1), math.Inf(1)
		for _, s := range run.sessions {
			bestWall[j] = math.Min(bestWall[j], float64(s.segWall[j]))
			bestCPU[j] = math.Min(bestCPU[j], float64(s.segCPU[j]))
		}
	}
	perIter := make([]float64, segs)
	var wall, cpu float64
	for j := range bestWall {
		perIter[j] = bestWall[j] / 1e6 / (ftIters / ftEvalPoints)
		wall += bestWall[j]
		cpu += bestCPU[j]
	}
	iters := ftIters * len(run.sessions)
	rep.attempted, rep.failed = iters, 0
	rep.metrics["goodput_per_s"] = ftIters / (wall / 1e9)
	rep.metrics["latency_p50_ms"] = median(perIter)
	rep.metrics["latency_p99_ms"] = quantile(perIter, 1)
	rep.metrics["cpu_us_per_op"] = cpu / 1e3 / ftIters
	rep.metrics["ok_frac"] = 1
	var acc float64
	var writes int64
	var conf metrics.Confusion
	for _, s := range run.sessions {
		acc += s.res.FinalAcc
		writes += s.res.Writes
		conf.Add(s.res.DetectionScore)
		rep.require("train/segments", len(s.segWall) == segs, "session segments %d, want %d", len(s.segWall), segs)
	}
	rep.metrics["accuracy"] = acc / float64(len(run.sessions))
	rep.info["sessions"] = float64(len(run.sessions))
	rep.info["iterations_per_session"] = ftIters
	rep.info["accuracy_end"] = rep.metrics["accuracy"]
	rep.info["cell_writes_per_op"] = float64(writes) / float64(iters)
	rep.info["detect.precision"] = conf.Precision()
	rep.info["detect.recall"] = conf.Recall()
	rep.info["gen_late_p99_ms"] = 0 // training has no request generator
}

func runTrain(o *options) (*report, error) {
	rep := newReport()
	fx, setup, prints := repeatSetup(func() *trainFixture { return setupTrain(o) },
		func(fx *trainFixture) string {
			return fmt.Sprintf("acc=%v writes=%d", fx.warmup.FinalAcc, fx.warmup.Writes)
		},
		func(*trainFixture) {})
	rep.require("deterministic/setup", allEqual(prints), "set-up repeats disagree: %v", prints)
	rep.metrics["setup_s"] = setup
	run, err := trainFlow(o, fx, false)
	if err != nil {
		return nil, err
	}
	trainFigures(rep, run)
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	if !o.trace {
		return rep, nil
	}

	trun, err := trainFlow(o, fx, true)
	if err != nil {
		return nil, err
	}
	trep := newReport()
	trep.checks = rep.checks
	trainFigures(trep, trun)
	for _, k := range []string{"accuracy_end", "cell_writes_per_op", "detect.precision", "detect.recall"} {
		trep.require("deterministic/"+k, rep.info[k] == trep.info[k], "%s: untraced %v, traced %v", k, rep.info[k], trep.info[k])
	}
	tr := &tracer{}
	nestJournal(tr, trun.jspans, map[string]string{"train": "core.train", "iter": "core.iter", "maintain": "core.maintain"})
	trep.info["core.iter_ms"] = tr.medianMs("core.iter")
	trep.info["core.maintain_ms"] = tr.medianMs("core.maintain")
	var maint, total float64
	for _, s := range tr.spans {
		switch s.Name {
		case "core.maintain":
			maint += float64(s.dur())
		case "core.train":
			total += float64(s.dur())
		}
	}
	if total > 0 {
		trep.info["core.maintain_share"] = maint / total
	}
	for _, st := range []string{"detect", "prune_score", "remap", "prune_install"} {
		trep.info["repair.stage."+st+"_ms"] = tr.medianMs("repair.stage." + st)
	}
	layerProbe(tr, trun.last, fx.data[len(fx.data)-1], o.seed, trep.metrics)
	commonLayers(trep, trun.jcount, run.rt, rep.attempted, rep.metrics["goodput_per_s"], trep.metrics["goodput_per_s"])
	return finishTrace(o, "train-ft", tr, trep, "core.train", "core.iter", "core.maintain", "core.replay_iter")
}

// nestJournal adds the program's journal spans to the tracer, parenting
// each under the innermost journal span that encloses it (the journal
// models one control path, so its spans nest properly). Path elements
// named in names are renamed; any other element becomes a repair stage.
func nestJournal(tr *tracer, js []journalSpan, names map[string]string) {
	sorted := append([]journalSpan(nil), js...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].start != sorted[b].start {
			return sorted[a].start < sorted[b].start
		}
		return sorted[a].end > sorted[b].end
	})
	type open struct {
		id  int64
		end int64
	}
	var stack []open
	for _, s := range sorted {
		for len(stack) > 0 && stack[len(stack)-1].end < s.end {
			stack = stack[:len(stack)-1]
		}
		var parent int64
		if len(stack) > 0 {
			parent = stack[len(stack)-1].id
		}
		el := stageName(s.path)
		name, ok := names[el]
		if !ok {
			name = "repair.stage." + el
		}
		id := tr.add(name, parent, 0, s.start, s.end)
		stack = append(stack, open{id: id, end: s.end})
	}
}
