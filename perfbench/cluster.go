package main

import (
	"fmt"
	"sync"

	"rramft/internal/cluster"
	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/fault"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// clusterReplicas is rramft-serve -replicas 2.
const clusterReplicas = 2

// clusterFixture is two replicas behind a cluster.Dispatcher, programmed
// from one weight image of the scenario model. It follows every model the
// dispatcher builds, rebuilds included, to account their cell writes.
type clusterFixture struct {
	cfg   serve.ScenarioConfig
	ds    *dataset.Dataset
	d     *cluster.Dispatcher
	order []int

	mu      sync.Mutex
	live    map[int]*core.Model // replica id → its current model
	retired int64               // cell writes of replaced models
}

func setupCluster(seed int64, stageSpans bool) (*clusterFixture, error) {
	cfg := serve.DefaultScenarioConfig(seed)
	cfg.Serve.QueueCap = queueCap
	m, ds := serve.TrainScenarioModel(cfg)
	fx := &clusterFixture{cfg: cfg, ds: ds, order: xrand.Derive(seed, "perfbench/requests").Perm(ds.TestX.Rows), live: map[int]*core.Model{}}
	rcfg := cfg.Repair
	rcfg.StageSpans = stageSpans
	// The same construction as cluster.ScenarioDispatcher, with NewModel
	// also recording each model it builds. A model is replaced only by a
	// rebuild, which holds the replica's maintenance lock, so its writes
	// are final when its successor is built.
	d, err := cluster.New(cluster.Config{
		Replicas: clusterReplicas,
		Seed:     cfg.Seed,
		InSize:   ds.InSize(),
		Serve:    cfg.Serve,
		Repair:   rcfg,
		Image:    cluster.CaptureImage(m),
		ProbeX:   ds.TestX,
		ProbeY:   ds.TestY,
		NewModel: func(id, gen int) *core.Model {
			rc := cfg
			rc.Seed = xrand.DeriveSeed(cfg.Seed, fmt.Sprintf("cluster/replica-%d/gen-%d", id, gen))
			rm := serve.ScenarioModel(rc, ds)
			fx.mu.Lock()
			if prev := fx.live[id]; prev != nil {
				fx.retired += prev.HardwareStats().Writes
			}
			fx.live[id] = rm
			fx.mu.Unlock()
			return rm
		},
	})
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	fx.d = d
	closedLoop(d, warmupRequests, closedWindow, fx.input(0), nil)
	return fx, nil
}

func (fx *clusterFixture) input(offset int) inputFn {
	return func(i int) []float64 { return fx.ds.TestX.Row(fx.order[(offset+i)%len(fx.order)]) }
}

// writes sums the cell writes of every model the dispatcher has built.
// Call it only while nothing writes: no repair, rebuild or training.
func (fx *clusterFixture) writes() int64 {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	w := fx.retired
	for _, m := range fx.live {
		w += m.HardwareStats().Writes
	}
	return w
}

// failoverSchedule places one failover cycle in a window of n requests: a
// burst on replica 0, two drain-repair-readmit passes on it, and a
// rebuild of replica 1. Cycles run in failover windows of their own, a
// closed loop like the saturation windows. Neither the open-loop windows
// nor the saturation windows carry one: a cycle keeps both CPUs busy, and
// the window it runs in lasts until its drain-repair-rebuild chain ends,
// so with a cycle in them the tail latency and the goodput followed how
// long the host took over that chain rather than the serving path.
func failoverSchedule(n int) schedule {
	return schedule{n / 10: evBurst, 3 * n / 10: evRepairReplica, 5 * n / 10: evRepairReplica, 7 * n / 10: evRebuild}
}

// clusterRun is one scripted failover flow's raw results.
type clusterRun struct {
	a, b, f                   []window
	rt                        [2]runtimeSample
	writes                    int64
	cycles                    int
	accuracy                  float64
	repairs, rebuilds, probes []passRecord
	minProbe                  []float64
	jspans                    []journalSpan
	jcount                    map[string]int64
	dispatchSubmit, engineSub float64
	err                       error
}

// clusterFlow runs rounds of one open-loop, one saturation and one
// failover window through the dispatcher; the events goroutine runs one
// failover cycle per failover window, and after every rebuild it probes
// all replicas.
func clusterFlow(o *options, fx *clusterFixture, traced bool) (*clusterRun, error) {
	perA, perB := windowSizes(o)
	run := &clusterRun{}
	burstRng := xrand.Derive(o.seed, "perfbench/cluster-failover").Split("burst")
	ev := startEvents(func(ev evKind) {
		rec := passRecord{start: now()}
		switch ev {
		case evBurst:
			fx.d.Engine(0).InjectFaultBurst(fx.cfg.BurstFrac, fx.cfg.BurstSA0, fault.Uniform{}, burstRng)
		case evRepairReplica:
			rec.st = fx.d.RepairReplica(0)
			rec.end = now()
			run.repairs = append(run.repairs, rec)
		case evRebuild:
			if err := fx.d.Rebuild(1); err != nil && run.err == nil {
				run.err = fmt.Errorf("rebuilding replica 1: %w", err)
			}
			rec.end = now()
			run.rebuilds = append(run.rebuilds, rec)
			p := passRecord{start: now()}
			accs := fx.d.ProbeAll()
			p.end = now()
			run.probes = append(run.probes, p)
			run.minProbe = append(run.minProbe, minOf(accs))
			run.cycles++
		}
	})
	var jl *journal
	if traced {
		jl = startJournal("cluster-failover", o.seed)
	}
	w0 := fx.writes()
	run.rt[0] = readRuntime()
	next := 0
	for r := 0; r < windowCount; r++ {
		a := openLoop(fx.d, perA, openRate, fx.input(next), nil)
		a.first, next = next, next+perA
		b := closedLoop(fx.d, perB, closedWindow, fx.input(next), nil)
		b.first, next = next, next+perB
		f := closedLoop(fx.d, perB, closedWindow, fx.input(next), ev.window(failoverSchedule(perB)))
		f.first, next = next, next+perB
		run.a, run.b, run.f = append(run.a, a), append(run.b, b), append(run.f, f)
	}
	ev.stop()
	run.rt[1] = readRuntime()
	if run.err != nil {
		return nil, run.err
	}
	run.writes = fx.writes() - w0
	// Accuracy is the mean, over the scripted post-rebuild probes and a
	// final one, of the worst replica's probe accuracy.
	probes := append(run.minProbe, minOf(fx.d.ProbeAll()))
	for _, a := range probes {
		run.accuracy += a / float64(len(probes))
	}
	if traced {
		run.dispatchSubmit, run.engineSub = submitCosts(fx)
	}
	if jl != nil {
		var err error
		if run.jspans, run.jcount, err = jl.close(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// submitCosts returns the median Submit call time in µs through the
// dispatcher and straight into replica 0's engine, each over a short
// closed loop.
func submitCosts(fx *clusterFixture) (dispatcher, engine float64) {
	med := func(w window) float64 {
		var d []float64
		for i := range w.samples {
			d = append(d, float64(w.samples[i].sub1-w.samples[i].sub0)/1e3)
		}
		return median(d)
	}
	return med(closedLoop(fx.d, warmupRequests, closedWindow, fx.input(0), nil)),
		med(closedLoop(fx.d.Engine(0), warmupRequests, closedWindow, fx.input(0), nil))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func clusterInfo(rep *report, run *clusterRun) {
	rep.info["accuracy_end"] = run.accuracy
	rep.info["failover_cycles"] = float64(run.cycles)
	if run.cycles > 0 {
		rep.info["cell_writes_per_op"] = float64(run.writes) / float64(run.cycles)
	}
	rep.info["accuracy_min_after_rebuild"] = minOf(append([]float64{1}, run.minProbe...))
	ms := func(rs []passRecord) float64 {
		var d []float64
		for _, r := range rs {
			d = append(d, float64(r.end-r.start)/1e6)
		}
		return median(d)
	}
	rep.info["cluster.repair_replica_ms"] = ms(run.repairs)
	rep.info["cluster.rebuild_ms"] = ms(run.rebuilds)
	rep.info["cluster.probe_ms"] = ms(run.probes)
}

func runCluster(o *options) (*report, error) {
	rep := newReport()
	var setupErr error
	fx, setup, prints := repeatSetup(func() *clusterFixture {
		fx, err := setupCluster(o.seed, false)
		if err != nil && setupErr == nil {
			setupErr = err
		}
		return fx
	}, func(fx *clusterFixture) string {
		if fx == nil {
			return "failed"
		}
		return fmt.Sprintf("acc=%v writes=%d", fx.d.ProbeAll(), fx.writes())
	}, func(fx *clusterFixture) {
		if fx != nil {
			fx.d.Close()
		}
	})
	if setupErr != nil {
		return nil, setupErr
	}
	rep.require("deterministic/setup", allEqual(prints), "set-up repeats disagree: %v", prints)
	rep.metrics["setup_s"] = setup
	run, err := clusterFlow(o, fx, false)
	if err != nil {
		return nil, err
	}
	loadFigures(rep, run.a, run.b, run.f)
	rep.metrics["accuracy"] = run.accuracy
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	clusterInfo(rep, run)
	fx.d.Close()
	if !o.trace {
		return rep, nil
	}

	tfx, err := setupCluster(o.seed, true)
	if err != nil {
		return nil, err
	}
	trun, err := clusterFlow(o, tfx, true)
	if err != nil {
		return nil, err
	}
	trep := newReport()
	trep.checks = rep.checks
	loadFigures(trep, trun.a, trun.b, trun.f)
	clusterInfo(trep, trun)
	for _, k := range []string{"accuracy_end", "cell_writes_per_op", "accuracy_min_after_rebuild"} {
		trep.require("deterministic/"+k, rep.info[k] == trep.info[k], "%s: untraced %v, traced %v", k, rep.info[k], trep.info[k])
	}
	trep.info["cluster.dispatch_overhead_us"] = trun.dispatchSubmit - trun.engineSub
	if routed := trun.jcount["cluster.routed"]; routed > 0 {
		trep.info["cluster.redispatched_frac"] = float64(trun.jcount["cluster.redispatched"]) / float64(routed)
	}
	tr := &tracer{}
	requestSpans(tr, trun.a)
	requestSpans(tr, trun.b)
	requestSpans(tr, trun.f)
	passSpans(tr, "cluster.repair_replica", trun.repairs, trun.jspans, "repair")
	for _, r := range trun.rebuilds {
		tr.add("cluster.rebuild", 0, 0, r.start, r.end)
	}
	for _, p := range trun.probes {
		tr.add("cluster.probe", 0, 0, p.start, p.end)
	}
	tfx.d.Close()
	tfx.mu.Lock()
	m := tfx.live[0]
	tfx.mu.Unlock()
	layerProbe(tr, m, tfx.ds, o.seed, trep.metrics)
	commonLayers(trep, trun.jcount, run.rt, rep.attempted, rep.metrics["goodput_per_s"], trep.metrics["goodput_per_s"])
	return finishTrace(o, "cluster-failover", tr, trep, "serve.request", "cluster.repair_replica", "core.replay_iter")
}
