package perf

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestRunProducesValidDoc runs the whole suite at a tiny measuring budget
// and checks the document survives Verify and a write/load round trip —
// the same contract the CI bench smoke gates on.
func TestRunProducesValidDoc(t *testing.T) {
	doc := Run(Options{BenchTime: 10 * time.Millisecond, Seed: 3})
	if err := Verify(doc); err != nil {
		t.Fatalf("Verify on fresh suite run: %v", err)
	}
	for _, op := range []string{"rram.mvm/batched", "mapping.read/mirrored", "nn.forward/batched", "serve.infer/batched"} {
		e := doc.Find(op)
		if e == nil {
			t.Fatalf("missing %s", op)
		}
		if e.Baseline == "" || e.Speedup <= 0 {
			t.Fatalf("%s: baseline %q speedup %v", op, e.Baseline, e.Speedup)
		}
	}
	if e := doc.Find("serve.infer/batched"); e.P50Ns <= 0 || e.P99Ns < e.P50Ns {
		t.Fatalf("serving percentiles p50=%d p99=%d", e.P50Ns, e.P99Ns)
	}

	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := Write(path, doc); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(got); err != nil {
		t.Fatalf("Verify after round trip: %v", err)
	}
	if len(got.Entries) != len(doc.Entries) || got.Schema != doc.Schema {
		t.Fatalf("round trip changed the document: %d entries schema %q", len(got.Entries), got.Schema)
	}
}

// validDoc builds a minimal document that passes Verify, for mutation
// tests below.
func validDoc() *Doc {
	d := &Doc{Schema: Schema, Go: "go0", GOOS: "linux", GOARCH: "amd64", Workers: 1, BenchTime: "1ms"}
	for _, op := range RequiredOps {
		d.Entries = append(d.Entries, Entry{Op: op, Config: "c", NsPerOp: 100})
	}
	return d
}

// TestVerifyRejects enumerates the malformed documents Verify must refuse:
// wrong schema, empty, duplicate ops, non-finite timings, dangling
// baselines and missing required ops.
func TestVerifyRejects(t *testing.T) {
	if err := Verify(validDoc()); err != nil {
		t.Fatalf("control document rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(d *Doc)
	}{
		{"schema", func(d *Doc) { d.Schema = "other/v0" }},
		{"empty", func(d *Doc) { d.Entries = nil }},
		{"duplicate", func(d *Doc) { d.Entries = append(d.Entries, d.Entries[0]) }},
		{"zero-ns", func(d *Doc) { d.Entries[0].NsPerOp = 0 }},
		{"nan-ns", func(d *Doc) { d.Entries[0].NsPerOp = math.NaN() }},
		{"inf-ns", func(d *Doc) { d.Entries[0].NsPerOp = math.Inf(1) }},
		{"dangling-baseline", func(d *Doc) { d.Entries[1].Baseline = "nope"; d.Entries[1].Speedup = 2 }},
		{"zero-speedup", func(d *Doc) { d.Entries[1].Baseline = d.Entries[0].Op }},
		{"missing-required", func(d *Doc) { d.Entries = d.Entries[1:] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := validDoc()
			tc.mutate(d)
			if err := Verify(d); err == nil {
				t.Fatal("Verify accepted a malformed document")
			}
		})
	}
}

// TestLoadRejectsGarbage: a missing file and invalid JSON both error.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}
