package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rramft/internal/fault"
	"rramft/internal/obs"
	"rramft/internal/repair"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// holdPolicy runs the golden-image stages with a stage inserted right
// after detection that parks the first pass to reach it until release is
// closed — holding that replica inside its degraded window while the
// others repair.
type holdPolicy struct {
	held             atomic.Bool
	entered, release chan struct{}
}

func (p *holdPolicy) Name() string         { return "hold" }
func (p *holdPolicy) NeedsReference() bool { return true }
func (p *holdPolicy) Stages(cfg repair.Config, t *repair.Target, phase int) []repair.Stage {
	st := repair.GoldenImage{}.Stages(cfg, t, phase)
	return append([]repair.Stage{st[0], holdStage{p}}, st[1:]...)
}

type holdStage struct{ p *holdPolicy }

func (holdStage) Name() string { return "hold" }
func (s holdStage) Run(*repair.Ctx) {
	if s.p.held.CompareAndSwap(false, true) {
		s.p.entered <- struct{}{}
		<-s.p.release
	}
}

// degradedGauges reads the slots' serve.r<i>.degraded gauges.
func degradedGauges(n int) []int64 {
	snap := obs.Default().Snapshot()
	out := make([]int64, n)
	for i := range out {
		out[i] = snap[fmt.Sprintf("serve.r%d.degraded", i)]
	}
	return out
}

// One replica in its degraded window must show as exactly one degraded
// instance, however its peers' repair passes end: each engine owns its
// gauges, so a healthy peer's pass cannot clear another replica's flag.
func TestDegradedGaugeIsPerReplica(t *testing.T) {
	obs.EnableMetrics()
	hold := &holdPolicy{entered: make(chan struct{}), release: make(chan struct{})}
	d := testDispatcher(t, 3, func(c *Config) {
		c.Repair = serve.RepairConfig{Policy: hold, Config: repair.Config{Oracle: true, Restore: true}}
	})
	d.Engine(1).InjectFaultBurst(0.3, 0.5, fault.Uniform{}, xrand.New(5))

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.RepairReplica(1)
	}()
	<-hold.entered
	if !d.Engine(1).Degraded() {
		t.Fatal("replica 1 is not degraded after detecting its fault burst")
	}
	d.RepairReplica(0)
	d.RepairReplica(2)

	if got := degradedGauges(3); got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("degraded gauges r0..r2 = %v, want [0 1 0]", got)
	}
	close(hold.release)
	<-done
	if got := degradedGauges(3); got[0]+got[1]+got[2] != 0 {
		t.Errorf("degraded gauges after every pass completed = %v, want all 0", got)
	}
}
