package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"rramft/internal/serve"
)

// declared reads the metric lists BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, metricSpec{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, metricSpec{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

func TestDeclaredMetricsMatch(t *testing.T) {
	e2e, layer := declared(t)
	for _, c := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json declares %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: benchmark reports %v, BENCHMARK.json declares %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestSmoke runs every workload briefly, measured and traced, and checks
// that the result line is correct and carries every declared metric with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := declared(t)
	for _, name := range workloadNames() {
		for trace, specs := range [][]metricSpec{e2e, layer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", strconv.Itoa(trace), "--out", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%s trace=%d: exit %d\n%s", name, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d", name, trace, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, trace, s.name, m, s.unit)
				}
			}
		}
	}
}

// stallBackend answers every request at once, except that Submit of
// request stallAt blocks for stall — a backend that stops taking work.
type stallBackend struct {
	n, stallAt int
	stall      time.Duration
}

func (b *stallBackend) Submit(*serve.Request) (<-chan serve.Response, error) {
	if b.n == b.stallAt {
		time.Sleep(b.stall)
	}
	b.n++
	ch := make(chan serve.Response, 1)
	ch <- serve.Response{}
	return ch, nil
}

// TestOpenLoopChargesStall checks that a request due while the backend
// stalls is timed from when it was due, not from when the generator got
// to send it: each one's latency covers the rest of the stall.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate    = 1000.0 // one request due every millisecond
		stallAt = 10
		stall   = 60 * time.Millisecond
	)
	b := &stallBackend{stallAt: stallAt, stall: stall}
	p := openLoop(b, 100, rate, func(int) []float64 { return nil }, nil)
	stallEnd := p.samples[stallAt].sub1
	if got := stallEnd - p.samples[stallAt].sub0; got < stall.Nanoseconds() {
		t.Fatalf("stalled Submit took %v, want at least %v", time.Duration(got), stall)
	}
	charged := 0
	for i := stallAt + 1; i < len(p.samples); i++ {
		s := p.samples[i]
		if s.due >= stallEnd {
			break
		}
		charged++
		if s.latency() < stallEnd-s.due {
			t.Errorf("request %d due %v before the stall ended has latency %v", i, time.Duration(stallEnd-s.due), time.Duration(s.latency()))
		}
		if s.sub0-s.due < stallEnd-s.due {
			t.Errorf("request %d: generator lateness %v not recorded", i, time.Duration(s.sub0-s.due))
		}
	}
	if charged < 40 {
		t.Fatalf("only %d requests fell due during a %v stall at %v/s", charged, stall, rate)
	}
	q := latencyQuantiles(p.samples, 0.5)
	if q[0] < 10 {
		t.Errorf("median latency %.2f ms: the stall was not charged to the requests due during it", q[0])
	}
}
