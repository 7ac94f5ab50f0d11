package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"rramft/internal/chaos"
	"rramft/internal/obs"
	"rramft/internal/par"
	"rramft/internal/testkit"
)

// chaosGoldenRun executes one full canonical-campaign run from a fresh
// trained model on a fresh fake clock and returns the journal bytes plus
// the result. Determinism comes from the fake clock (the campaign engine
// is driven synchronously on it), MaxBatch 1 (no MaxWait timer for the
// fake clock to starve — saturation junk drains request by request),
// single-worker tensor kernels, and a tick journal clock. Every run also
// starts from the registry state of a fresh process: the engine's state
// gauges are process-wide (an unnamed engine's are serve.epoch and
// friends), the journal reports their movement against its start, and
// without the reset a run would start from the epoch the previous run's
// engine left behind.
func chaosGoldenRun(t *testing.T) ([]byte, *ChaosScenarioResult) {
	t.Helper()
	cfg := DefaultChaosScenarioConfig(11)
	cfg.Base.Serve.Clock = obs.NewFakeClock(0)
	cfg.Base.Serve.MaxBatch = 1
	m, ds := TrainScenarioModel(cfg.Base)
	newInstanceGauges(cfg.Base.Serve.Instance)

	var buf bytes.Buffer
	var tick int64
	j := obs.StartWithClock(&buf, obs.Header{
		Cmd: "chaos-scenario", Seed: 11,
		Config: map[string]string{"net": "mlp-32", "campaign": CanonicalCampaign},
	}, func() int64 { tick += 1000; return tick })
	res := ChaosPhases(m, ds, cfg)
	res.Engine.Close()
	if err := j.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
	return buf.Bytes(), res
}

// TestChaosScenarioGolden is the acceptance gate for graceful degradation
// under a scheduled failure campaign: the canonical campaign strikes a
// live engine with every runtime fault dynamic (burst, intermittent,
// read-disturb, write-failure, drift, stall, saturation) while repair
// races the damage, and the full arc — pre-fault accuracy → degraded
// floor → recovery within 2 points — is pinned in a golden journal,
// without a restart. A second identical run must reproduce the journal
// byte-for-byte (regenerate with RRAMFT_UPDATE_GOLDEN=1 or
// scripts/regen_golden.sh; the "end" counters line is excluded because
// gauge deltas depend on which tests ran earlier in the process).
func TestChaosScenarioGolden(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	raw, res := chaosGoldenRun(t)

	if res.PreFault < 0.5 {
		t.Fatalf("scenario model only trained to %.3f accuracy; the comparisons below would be noise", res.PreFault)
	}
	if res.Floor >= res.PreFault-RecoveryMargin {
		t.Errorf("campaign never dented accuracy: floor %.3f vs pre-fault %.3f", res.Floor, res.PreFault)
	}
	if !res.Recovered || res.Final < res.PreFault-RecoveryMargin {
		t.Errorf("acceptance: final accuracy %.3f did not recover to within 2 points of pre-fault %.3f (floor %.3f, recover_ns %d)",
			res.Final, res.PreFault, res.Floor, res.RecoverNS)
	}
	if res.Stats.EstimatedFaults == 0 {
		t.Error("repair detected none of the campaign's faults")
	}
	for _, kind := range []string{chaos.Burst, chaos.Intermittent, chaos.Disturb, chaos.WriteFail, chaos.Drift, chaos.Stall, chaos.Saturate} {
		if res.Fired[kind] == 0 {
			t.Errorf("campaign kind %q never fired: %v", kind, res.Fired)
		}
	}
	if res.Fired["skipped"] != 0 {
		t.Errorf("campaign skipped %d events on a fully-hooked target", res.Fired["skipped"])
	}
	if res.StallSkips != 1 {
		t.Errorf("StallSkips = %d, want 1 (the 20ms stall window covers exactly one tick)", res.StallSkips)
	}
	if res.Passes == 0 || res.Engine.Epoch() == 0 {
		t.Error("repair never ran or never bumped the epoch")
	}

	var lines []json.RawMessage
	sawEnd := false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		if ev.Ev == "end" {
			sawEnd = true
			continue
		}
		lines = append(lines, json.RawMessage(append([]byte(nil), sc.Bytes()...)))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Error("journal has no end event")
	}
	testkit.Golden(t, "testdata/golden/chaos_scenario_journal.json", struct {
		Lines []json.RawMessage
	}{lines})
}

// TestChaosScenarioReproducesByteForByte: identical seed and schedule
// must reproduce the whole campaign journal byte-for-byte — the
// reproducibility contract a chaos report rests on.
func TestChaosScenarioReproducesByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the scenario model twice")
	}
	t.Setenv(par.EnvWorkers, "1")
	a, _ := chaosGoldenRun(t)
	b, _ := chaosGoldenRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical campaign runs diverged: %d vs %d journal bytes", len(a), len(b))
	}
}
