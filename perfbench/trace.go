package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rramft/internal/obs"
)

// span is one traced interval on the benchmark's clock (clockBase ns).
// Parent is the enclosing span's ID (0 for a root); Ref is the request,
// repair pass or training iteration the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Ref    int64  `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It records only
// around the benchmark's own calls into the program's public functions,
// and only from the goroutine that runs the flow.
type tracer struct {
	spans []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, ref, start, end int64) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: start, End: end})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, ref int64, fn func()) int64 {
	start := now()
	fn()
	return t.add(name, parent, ref, start, now())
}

// journal captures the program's own obs journal (spans and registry
// counters) into memory for the length of a traced flow.
type journal struct {
	buf  bytes.Buffer
	j    *obs.Journal
	base int64 // benchmark clock at journal start
}

func startJournal(workload string, seed int64) *journal {
	jl := &journal{}
	jl.base = now()
	jl.j = obs.Start(&jl.buf, obs.Header{Cmd: "perfbench/" + workload, Seed: seed})
	return jl
}

// journalSpan is one span event of the program's journal, converted to the
// benchmark's clock.
type journalSpan struct {
	path       string
	start, end int64
}

// close ends the journal and returns its spans plus the counter deltas of
// its final event.
func (jl *journal) close() ([]journalSpan, map[string]int64, error) {
	if err := jl.j.Close(); err != nil {
		return nil, nil, fmt.Errorf("closing journal: %w", err)
	}
	var spans []journalSpan
	var counters map[string]int64
	sc := bufio.NewScanner(&jl.buf)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var ev struct {
			Ev       string           `json:"ev"`
			T        int64            `json:"t_ns"`
			Path     string           `json:"path"`
			DurNs    int64            `json:"dur_ns"`
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, nil, fmt.Errorf("parsing journal: %w", err)
		}
		switch ev.Ev {
		case "span":
			end := jl.base + ev.T
			spans = append(spans, journalSpan{path: ev.Path, start: end - ev.DurNs, end: end})
		case "end":
			counters = ev.Counters
		}
	}
	return spans, counters, sc.Err()
}

// histogramMean returns the mean of a registry histogram.
func histogramMean(name string) float64 {
	for _, h := range obs.Default().Histograms() {
		if h.Name() == name && h.Count() > 0 {
			return float64(h.Sum()) / float64(h.Count())
		}
	}
	return 0
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name            string
	n               int
	totalMs, selfMs float64
	p50us           float64
}

// table aggregates spans by name: count, total and self time (a span's
// duration minus the part of it its children cover), and median duration.
func (t *tracer) table() []layerRow {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerRow{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		r.n++
		r.totalMs += float64(s.dur()) / 1e6
		r.selfMs += float64(s.dur()-covered(s, children[s.ID])) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
	}
	rows := make([]layerRow, 0, len(byName))
	for name, r := range byName {
		r.p50us = median(durs[name])
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].name < rows[b].name })
	return rows
}

// covered returns how much of parent's interval the children's union
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// coverage reports, over every span named parent, the share of its time
// its children cover; the rest is unattributed.
func (t *tracer) coverage(parent string) (frac float64, n int) {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var cov, total int64
	for _, s := range t.spans {
		if s.Name == parent {
			n++
			total += s.dur()
			cov += covered(s, children[s.ID])
		}
	}
	if total == 0 {
		return 0, n
	}
	return float64(cov) / float64(total), n
}

// render formats the per-layer table and the coverage lines of the given
// parent spans.
func (t *tracer) render(parents ...string) []string {
	lines := []string{fmt.Sprintf("# %-34s %8s %12s %12s %12s", "span", "n", "total_ms", "self_ms", "p50_us")}
	for _, r := range t.table() {
		lines = append(lines, fmt.Sprintf("# %-34s %8d %12.3f %12.3f %12.3f", r.name, r.n, r.totalMs, r.selfMs, r.p50us))
	}
	for _, p := range parents {
		frac, n := t.coverage(p)
		lines = append(lines, fmt.Sprintf("# coverage %s: children cover %.1f%% of %d spans, unattributed %.1f%%", p, 100*frac, n, 100*(1-frac)))
	}
	return lines
}

// write stores every span as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing spans file: %w", err)
	}
	return path, nil
}

// stageName maps a journal span path like "repair/detect" or
// "train/iter/maintain/remap" to its last element.
func stageName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// medianMs returns the median of the named spans' durations in ms.
func (t *tracer) medianMs(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.dur())/1e6)
		}
	}
	return median(d)
}
