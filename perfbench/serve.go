package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rramft/internal/core"
	"rramft/internal/dataset"
	"rramft/internal/detect"
	"rramft/internal/fault"
	"rramft/internal/metrics"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// Load shape shared by the serving workloads.
const (
	// openRate is phase A's fixed arrival rate: twice the engine's
	// batch-fill rate MaxBatch/MaxWait (8/2ms = 4000/s), so batches fill
	// before the MaxWait timer fires and a faster forward path shows in
	// latency, and far below saturation (about 45k/s on two CPUs).
	openRate = 8000.0
	// openShare is the share of --seconds phase A lasts.
	openShare = 0.5
	// closedPerSecond sizes phase B: requests per second of --seconds.
	closedPerSecond = 15000
	// closedWindow is phase B's outstanding-request window, 2×MaxBatch.
	closedWindow = 16
	// latencyLimit is the limit goodput counts against: 5× MaxWait.
	latencyLimit = 10 * time.Millisecond
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 5
	// warmupRequests run closed-loop through a fresh engine before timing.
	warmupRequests = 2000
	// recoverTol is how close to the pre-fault probe accuracy a repair
	// pass must bring the engine to count as recovered.
	recoverTol = 0.02
	// spanEvery samples one request in this many into the spans file.
	spanEvery = 64
	// queueCap replaces the engine's default queue of 64. The longest
	// repair step holds the substrate lock for about 25 ms, longer than
	// 64 requests take to arrive at openRate, and the default queue would
	// refuse the overflow; with room for about 128 ms of arrivals the
	// stall shows in latency and goodput instead, and no request fails.
	queueCap = 1024
)

// serveFixture is rramft-serve's default single engine: the scenario MLP
// (256-32-10) trained from the seed on crossbars with 5% fabrication
// faults, MaxBatch 8, MaxWait 2 ms, maintenance loop not started.
type serveFixture struct {
	cfg   serve.ScenarioConfig
	m     *core.Model
	ds    *dataset.Dataset
	e     *serve.Engine
	order []int
}

func setupServe(seed int64) *serveFixture {
	cfg := serve.DefaultScenarioConfig(seed)
	cfg.Serve.QueueCap = queueCap
	m, ds := serve.TrainScenarioModel(cfg)
	fx := &serveFixture{cfg: cfg, m: m, ds: ds, e: serve.NewEngine(m, ds.InSize(), cfg.Serve)}
	fx.order = xrand.Derive(seed, "perfbench/requests").Perm(ds.TestX.Rows)
	closedLoop(fx.e, warmupRequests, closedWindow, fx.input(0), nil)
	return fx
}

// input returns the request payloads: held-out test rows in a seeded
// order, request i of a phase starting at offset.
func (fx *serveFixture) input(offset int) inputFn {
	return func(i int) []float64 { return fx.ds.TestX.Row(fx.row(offset + i)) }
}

func (fx *serveFixture) row(i int) int { return fx.order[i%len(fx.order)] }

// repeatSetup builds a fixture setupRepeats times and returns the last
// one, the median set-up time in seconds and each build's fingerprint
// (which must agree: set-up is deterministic). The first build is timed
// from process start.
func repeatSetup[T any](build func() T, fingerprint func(T) string, release func(T)) (T, float64, []string) {
	var fx T
	var secs []float64
	var prints []string
	for k := 0; k < setupRepeats; k++ {
		start := now()
		if k == 0 {
			start = 0
		}
		next := build()
		secs = append(secs, float64(now()-start)/1e9)
		prints = append(prints, fingerprint(next))
		if k > 0 {
			release(fx)
		}
		fx = next
	}
	return fx, median(secs), prints
}

// event kinds the scripted schedules fire at fixed request indices.
type evKind int

const (
	evBurst evKind = iota
	evPass
	evRepairReplica
	evRebuild
)

// schedule maps request indices to the events fired just before them.
type schedule map[int]evKind

// events runs scripted events in order on one goroutine of the
// benchmark's, the single writer every repair and rebuild needs.
type events struct {
	ch      chan evKind
	pending sync.WaitGroup
	done    chan struct{}
}

// maxEventsPerWindow bounds the events one window fires; the next window
// starts only after they have run, so the channel never holds more.
const maxEventsPerWindow = 4

func startEvents(handle func(evKind)) *events {
	e := &events{ch: make(chan evKind, maxEventsPerWindow), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		for ev := range e.ch {
			handle(ev)
			e.pending.Done()
		}
	}()
	return e
}

// window returns the script that fires s's events for one window.
func (e *events) window(s schedule) script { return scheduled{e, s} }

// stop waits for the event goroutine to exit.
func (e *events) stop() {
	close(e.ch)
	<-e.done
}

type scheduled struct {
	e  *events
	at schedule
}

func (s scheduled) fire(i int) {
	if ev, ok := s.at[i]; ok {
		s.e.pending.Add(1)
		s.e.ch <- ev
	}
}

func (s scheduled) wait() { s.e.pending.Wait() }

// repairSchedule fires one repair pass in the middle of a window of n
// requests, after a fault burst early in it when burst is set.
func repairSchedule(n int, burst bool) schedule {
	s := schedule{n / 2: evPass}
	if burst {
		s[n/10] = evBurst
	}
	return s
}

// passRecord is one repair pass as the maintenance goroutine saw it.
type passRecord struct {
	start, end int64
	st         serve.RepairStats
	acc        float64
}

// maintainer runs serve-repair's scripted fault burst and repair passes
// on the events goroutine, and probes accuracy on the held-out set after
// each pass. The read path consumes no substrate RNG, so the substrate
// after each event, and every probe, is the same in every run.
type maintainer struct {
	fx        *serveFixture
	rcfg      serve.RepairConfig
	burstRng  *xrand.Stream
	repairRng *xrand.Stream

	passes []passRecord
	conf   metrics.Confusion
}

func newMaintainer(fx *serveFixture, seed int64, stageSpans bool) *maintainer {
	rcfg := fx.cfg.Repair
	rcfg.StageSpans = stageSpans
	rng := xrand.Derive(seed, "perfbench/serve-repair")
	return &maintainer{fx: fx, rcfg: rcfg, burstRng: rng.Split("burst"), repairRng: rng.Split("repair")}
}

func (mt *maintainer) handle(ev evKind) {
	fx := mt.fx
	switch ev {
	case evBurst:
		fx.e.InjectFaultBurst(fx.cfg.BurstFrac, fx.cfg.BurstSA0, fault.Uniform{}, mt.burstRng)
	case evPass:
		rec := passRecord{start: now()}
		rec.st = fx.e.RepairPass(mt.rcfg, mt.repairRng)
		rec.end = now()
		rec.acc = fx.e.AccuracyBatched(fx.ds.TestX, fx.ds.TestY)
		for _, b := range fx.m.RCSBindings() {
			if est := b.Store.EstimatedFaults(); est != nil {
				mt.conf.Add(detect.Score(est, b.Store.Crossbar().FaultMap()))
			}
		}
		mt.passes = append(mt.passes, rec)
	}
}

// serveRun is one scripted serving flow's raw results: its open-loop (a)
// and closed-loop (b) windows.
type serveRun struct {
	a, b      []window
	rt        [2]runtimeSample
	preAcc    float64
	accuracy  float64
	writes    int64
	mt        *maintainer
	jspans    []journalSpan
	jcounters map[string]int64
}

// serveFlow alternates open-loop windows at openRate with closed-loop
// windows of closedWindow outstanding requests against fx's engine,
// firing the repair schedule in every window when repair is set, and
// probes accuracy at the end.
func serveFlow(o *options, fx *serveFixture, repair, traced bool) (*serveRun, error) {
	perA, perB := windowSizes(o)
	run := &serveRun{preAcc: fx.e.AccuracyBatched(fx.ds.TestX, fx.ds.TestY)}
	var ev *events
	if repair {
		run.mt = newMaintainer(fx, o.seed, traced)
		ev = startEvents(run.mt.handle)
	}
	var jl *journal
	if traced {
		jl = startJournal("serve", o.seed)
	}
	sc := func(n int, burst bool) script {
		if ev == nil {
			return nil
		}
		return ev.window(repairSchedule(n, burst))
	}
	w0 := fx.m.HardwareStats().Writes
	run.rt[0] = readRuntime()
	next := 0
	for r := 0; r < windowCount; r++ {
		a := openLoop(fx.e, perA, openRate, fx.input(next), sc(perA, r == 0))
		a.first, next = next, next+perA
		b := closedLoop(fx.e, perB, closedWindow, fx.input(next), sc(perB, false))
		b.first, next = next, next+perB
		run.a, run.b = append(run.a, a), append(run.b, b)
	}
	if ev != nil {
		ev.stop()
	}
	run.rt[1] = readRuntime()
	run.writes = fx.m.HardwareStats().Writes - w0
	run.accuracy = fx.e.AccuracyBatched(fx.ds.TestX, fx.ds.TestY)
	if jl != nil {
		var err error
		if run.jspans, run.jcounters, err = jl.close(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// windowSizes returns the request counts of one open-loop and one
// closed-loop window: phase A takes openShare of the run at openRate,
// phase B closedPerSecond requests per second of the run.
func windowSizes(o *options) (int, int) {
	a := int(openRate*o.seconds*openShare) / windowCount
	b := int(closedPerSecond*o.seconds) / windowCount
	return max(a, minPerWindow), max(b, minPerWindow)
}

// Window summaries. The host's speed swings by up to 2× over seconds as
// neighbours come and go, and those swings only ever slow a window down,
// so each per-window figure is summarized by its best window: the lowest
// latency and cost, the highest goodput. Every window carries the same
// scripted events, so a cost the program adds to each of them still
// shows in full.
const (
	bestLow  = 0
	bestHigh = 1
)

// loadFigures fills the end-to-end load metrics shared by the serving
// workloads: latency from the open-loop windows a, goodput from the
// closed-loop windows b, ok_frac over all windows. CPU per request comes
// from the closed-loop failover windows f when there are any (only
// cluster-failover has them), so that the failover cycle's cost is
// charged to the requests served meanwhile, and from b otherwise.
func loadFigures(rep *report, a, b, f []window) {
	var p50s, p99s, good, cpu []float64
	for _, w := range a {
		q := latencyQuantiles(w.samples, 0.5, 0.99)
		p50s, p99s = append(p50s, q[0]), append(p99s, q[1])
	}
	for _, w := range b {
		good = append(good, w.goodput(latencyLimit.Nanoseconds()))
	}
	costed := b
	if len(f) > 0 {
		costed = f
	}
	for _, w := range costed {
		cpu = append(cpu, w.cpuPerOK())
	}
	ok, sent := 0, 0
	for _, c := range []struct {
		name string
		ws   []window
	}{{"open", a}, {"closed", b}, {"failover", f}} {
		if c.ws == nil {
			continue
		}
		n := tally(c.ws)
		rep.require("conservation/"+c.name, n.conserved(), "%s windows: %+v", c.name, n)
		rep.info[c.name+".rejected"] = float64(n.rejected)
		rep.info[c.name+".timeouts"] = float64(n.timeouts)
		rep.info[c.name+".errored"] = float64(n.errored)
		ok, sent = ok+n.ok, sent+n.sent
	}
	rep.attempted, rep.failed = sent, sent-ok
	rep.metrics["latency_p50_ms"] = quantile(p50s, bestLow)
	rep.metrics["latency_p99_ms"] = quantile(p99s, bestLow)
	rep.metrics["goodput_per_s"] = quantile(good, bestHigh)
	rep.metrics["ok_frac"] = float64(ok) / float64(sent)
	rep.metrics["cpu_us_per_op"] = quantile(cpu, bestLow)
	rep.info["gen_late_p99_ms"] = genLateP99(a)
	rep.info["latency_samples_per_window"] = float64(len(a[0].samples))
	rep.info["latency_limit_ms"] = float64(latencyLimit) / 1e6
	rep.info["open_rate_per_s"] = openRate
}

// genLateP99 is the open-loop generator's p99 lateness (send − due) in ms.
func genLateP99(ws []window) float64 {
	var late []float64
	for _, w := range ws {
		for i := range w.samples {
			late = append(late, float64(w.samples[i].sub0-w.samples[i].due)/1e6)
		}
	}
	return quantile(late, 0.99)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

func runServe(o *options, repair bool) (*report, error) {
	name := "serve-steady"
	if repair {
		name = "serve-repair"
	}
	rep := newReport()
	fx, setup, prints := repeatSetup(func() *serveFixture { return setupServe(o.seed) },
		func(fx *serveFixture) string {
			return fmt.Sprintf("acc=%v writes=%d", fx.e.AccuracyBatched(fx.ds.TestX, fx.ds.TestY), fx.m.HardwareStats().Writes)
		},
		func(fx *serveFixture) { fx.e.Close() })
	rep.require("deterministic/setup", allEqual(prints), "set-up repeats disagree: %v", prints)
	rep.metrics["setup_s"] = setup

	run, err := serveFlow(o, fx, repair, false)
	if err != nil {
		return nil, err
	}
	loadFigures(rep, run.a, run.b, nil)
	rep.metrics["accuracy"] = run.accuracy
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	checkServe(rep, fx, run, repair)
	serveInfo(rep, run)
	if !o.trace {
		fx.e.Close()
		return rep, nil
	}

	// Traced run: the same flow again on a fresh set-up, with the
	// program's journal and registry on and spans recorded.
	untraced := rep.metrics["goodput_per_s"]
	rt := run.rt
	fx.e.Close()
	tfx := setupServe(o.seed)
	trun, err := serveFlow(o, tfx, repair, true)
	if err != nil {
		return nil, err
	}
	trep := newReport()
	trep.checks = rep.checks
	loadFigures(trep, trun.a, trun.b, nil)
	checkServe(trep, tfx, trun, repair)
	serveInfo(trep, trun)
	for _, k := range []string{"cell_writes_per_op", "repair.passes_to_recover", "detect.precision", "detect.recall", "accuracy_end"} {
		trep.require("deterministic/"+k, rep.info[k] == trep.info[k] || (rep.info[k] != rep.info[k] && trep.info[k] != trep.info[k]),
			"%s: untraced %v, traced %v", k, rep.info[k], trep.info[k])
	}
	tr := &tracer{}
	requestSpans(tr, trun.a)
	requestSpans(tr, trun.b)
	if trun.mt != nil {
		passSpans(tr, "repair.pass", trun.mt.passes, trun.jspans, "repair")
	}
	serveLayers(trep, tr, tfx, trun)
	tfx.e.Close()
	layerProbe(tr, tfx.m, tfx.ds, o.seed, trep.metrics)
	commonLayers(trep, trun.jcounters, rt, rep.attempted, untraced, trep.metrics["goodput_per_s"])
	return finishTrace(o, name, tr, trep, "serve.request", "repair.pass", "core.replay_iter")
}

// checkServe runs the serving workloads' output checks.
func checkServe(rep *report, fx *serveFixture, run *serveRun, repair bool) {
	if repair {
		rep.require("repair/passes", len(run.mt.passes) > 0, "no repair pass ran")
		return
	}
	rep.require("steady/no_writes", run.writes == 0, "%d cell writes while serving", run.writes)
	ref := fx.e.InferBatch(fx.ds.TestX)
	bad := 0
	for _, w := range append(append([]window(nil), run.a...), run.b...) {
		for i := range w.samples {
			if s := &w.samples[i]; s.out == outOK && s.class != ref[fx.row(w.first+i)] {
				bad++
			}
		}
	}
	rep.require("steady/classes_match_inferbatch", bad == 0, "%d served classes differ from InferBatch", bad)
}

// serveInfo records the flow's deterministic figures and repair summary.
func serveInfo(rep *report, run *serveRun) {
	rep.info["accuracy_end"] = run.accuracy
	rep.info["accuracy_pre"] = run.preAcc
	rep.info["cell_writes"] = float64(run.writes)
	rep.info["cell_writes_per_op"] = 0
	if run.mt == nil || len(run.mt.passes) == 0 {
		return
	}
	ps := run.mt.passes
	rep.info["cell_writes_per_op"] = float64(run.writes) / float64(len(ps))
	var ms []float64
	steps := 0
	recovered := len(ps) + 1
	for i, p := range ps {
		ms = append(ms, float64(p.end-p.start)/1e6)
		steps += p.st.Steps
		if recovered > len(ps) && p.acc >= run.preAcc-recoverTol {
			recovered = i + 1
		}
	}
	rep.info["repair_pass_ms"] = median(ms)
	rep.info["repair.passes"] = float64(len(ps))
	rep.info["repair.steps_per_pass"] = float64(steps) / float64(len(ps))
	rep.info["repair.passes_to_recover"] = float64(recovered)
	rep.info["detect.precision"] = run.mt.conf.Precision()
	rep.info["detect.recall"] = run.mt.conf.Recall()
}

// requestSpans derives each sampled request's spans from the timestamps
// the load generator records anyway: the request (due → response) with
// children for generator lateness, the Submit call and the engine's own
// latency. The rest of the request is delivery, reported as unattributed.
func requestSpans(tr *tracer, ws []window) {
	for _, w := range ws {
		for i := 0; i < len(w.samples); i += spanEvery {
			s := &w.samples[i]
			if s.out != outOK {
				continue
			}
			ref := int64(w.first + i)
			id := tr.add("serve.request", 0, ref, s.due, s.recv)
			if s.sub0 > s.due {
				tr.add("serve.gen_late", id, ref, s.due, s.sub0)
			}
			tr.add("serve.submit", id, ref, s.sub0, s.sub1)
			tr.add("serve.engine", id, ref, s.sub1, min(s.sub1+s.engNs, s.recv))
		}
	}
}

// passSpans records each repair pass as a span called name and
// re-parents the program's stage spans ("<root>/<stage>" in its journal)
// under the pass that contains them.
func passSpans(tr *tracer, name string, passes []passRecord, js []journalSpan, root string) {
	ids := make([]int64, len(passes))
	for i, p := range passes {
		ids[i] = tr.add(name, 0, int64(i+1), p.start, p.end)
	}
	const slack = 100 * int64(time.Microsecond) // journal and benchmark clocks start apart
	for _, s := range js {
		if len(s.path) <= len(root)+1 || s.path[:len(root)+1] != root+"/" {
			continue
		}
		for i, p := range passes {
			if s.start >= p.start-slack && s.end <= p.end+slack {
				tr.add("repair.stage."+stageName(s.path), ids[i], int64(i+1), max(s.start, p.start), min(s.end, p.end))
				break
			}
		}
	}
}

// serveLayers fills the serve.* and repair.* table figures of a traced
// serving flow.
func serveLayers(rep *report, tr *tracer, fx *serveFixture, run *serveRun) {
	var submit, eng []float64
	okN, correct, rejected, sent := 0, 0, 0, 0
	for pi, ws := range [][]window{run.a, run.b} {
		for _, w := range ws {
			for i := range w.samples {
				s := &w.samples[i]
				sent++
				submit = append(submit, float64(s.sub1-s.sub0)/1e3)
				switch s.out {
				case outOK:
					okN++
					if s.class == fx.ds.TestY[fx.row(w.first+i)] {
						correct++
					}
					if pi == 0 {
						eng = append(eng, float64(s.engNs)/1e6)
					}
				case outRejected:
					rejected++
				}
			}
		}
	}
	rep.info["serve.submit_us"] = median(submit)
	rep.info["serve.engine_latency_p50_ms"] = quantile(eng, 0.5)
	rep.info["serve.engine_latency_p99_ms"] = quantile(eng, 0.99)
	rep.info["serve.gen_late_p99_ms"] = genLateP99(run.a)
	rep.info["serve.batch_size_mean"] = histogramMean("serve.batch_size")
	rep.info["serve.served_accuracy"] = float64(correct) / float64(max(okN, 1))
	rep.info["serve.rejected_frac"] = float64(rejected) / float64(max(sent, 1))

	x := rowsFrom(fx.ds.TestX, 0, fx.cfg.Serve.MaxBatch)
	dst := make([]int, x.Rows)
	for r := 0; r < probeReps; r++ {
		tr.timed("serve.forward_batch", 0, int64(r), func() { fx.e.InferBatchInto(dst, x) })
	}
	rep.info["serve.forward_batch_us"] = tr.medianMs("serve.forward_batch") * 1e3

	if run.mt == nil {
		return
	}
	rep.info["repair.pass_ms"] = tr.medianMs("repair.pass")
	for _, st := range []string{"detect", "prune_score", "remap", "remap_free", "restore"} {
		rep.info["repair.stage."+st+"_ms"] = tr.medianMs("repair.stage." + st)
	}
	frac, _ := tr.coverage("repair.pass")
	rep.info["repair.stage_coverage"] = frac
	cycles := 0
	for _, p := range run.mt.passes {
		cycles += p.st.DetectCycles
	}
	rep.info["detect.cycles"] = float64(cycles)
}

// commonLayers fills the per-layer metrics every workload reports from
// the program's registry counters over the traced flow, the untraced
// flow's runtime accounting, and the goodput of both flows.
func commonLayers(rep *report, counters map[string]int64, rt [2]runtimeSample, ops int, untraced, traced float64) {
	rep.metrics["mapping.restore_writes"] = float64(counters["mapping.reference_restore_writes"])
	rep.metrics["mapping.remap_writes"] = float64(counters["mapping.remap_writes"])
	rep.metrics["rram.writes"] = float64(counters["rram.writes"])
	rep.metrics["rram.senses"] = float64(counters["rram.senses"])
	rep.metrics["rram.write_retries"] = float64(counters["rram.write_retries"])
	if ops > 0 {
		rep.metrics["runtime.alloc_bytes_per_op"] = float64(rt[1].allocBytes-rt[0].allocBytes) / float64(ops)
	}
	if d := rt[1].cpu - rt[0].cpu; d > 0 {
		rep.metrics["runtime.gc_cpu_frac"] = (rt[1].gcCPU - rt[0].gcCPU) / d.Seconds()
	}
	if untraced > 0 {
		rep.metrics["obs.trace_overhead_frac"] = 1 - traced/untraced
	}
}

// finishTrace writes the spans file and renders the per-layer table with
// the coverage of the given parent spans.
func finishTrace(o *options, name string, tr *tracer, rep *report, parents ...string) (*report, error) {
	path, err := tr.write(o.outDir, name, o.seed)
	if err != nil {
		return nil, err
	}
	rep.table = append(rep.table, "# spans: "+path)
	rep.table = append(rep.table, tr.render(parents...)...)
	for _, s := range perLayer {
		rep.table = append(rep.table, fmt.Sprintf("# layer %-32s %14.6g %s", s.name, rep.metrics[s.name], s.unit))
	}
	for _, k := range sortedKeys(rep.info) {
		rep.table = append(rep.table, fmt.Sprintf("# info  %-32s %14.6g", k, rep.info[k]))
	}
	return rep, nil
}

func allEqual(xs []string) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
