package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one op share Op; Parent is the index of
// the enclosing span within the op (-1 for the op's root).
type span struct {
	Op     int32  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans kept for the export at the end of a
// traced run; attribution always sees every span of every op.
const maxKeptSpans = 200_000

// spanOut is where a traced run writes its spans (set from -spans).
var spanOut string

// tracer records the spans of one op at a time. Calls may come from
// several goroutines (the sched.Grid workers of a figure).
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	op     int32
	spans  []span
	counts map[string]float64
	kept   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int32, name string) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: start})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(parent int32, name string, fn func() error) error {
	id := t.begin(parent, name)
	err := fn()
	t.end(id)
	return err
}

// count adds n to a per-op counter recorded at a layer boundary.
func (t *tracer) count(name string, n float64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// startOp begins a new op and returns its root span.
func (t *tracer) startOp() int32 {
	t.mu.Lock()
	t.op++
	t.spans = t.spans[:0]
	t.counts = map[string]float64{}
	t.mu.Unlock()
	return t.begin(-1, "op")
}

// finishOp closes the root and returns the op's wall time and its
// spans (a copy the next op does not overwrite).
func (t *tracer) finishOp(root int32) (time.Duration, []span, map[string]float64) {
	t.end(root)
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	if room := maxKeptSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, spans[:min(room, len(spans))]...)
	}
	r := spans[root]
	return time.Duration(r.End - r.Start), spans, t.counts
}

// layerOf maps a span name onto the layer its self time is charged
// to. The figure spans of internal/experiments share one layer; the
// root's self time is the op's unattributed time.
func layerOf(name string) string {
	switch {
	case name == "op":
		return "op.unattributed"
	case strings.HasPrefix(name, "experiments."):
		return "experiments.self"
	}
	return name
}

// attribute splits an op's wall time across layers. A span's self
// time is its interval minus the union of its children's intervals.
// Where several self intervals overlap in time (sched.Grid runs cells
// on several workers), each instant is shared equally among them, so
// the layer times always add up to the root's wall time.
func attribute(spans []span) map[string]float64 {
	type seg struct {
		start, end int64
		layer      string
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var segs []seg
	for i, s := range spans {
		// Self intervals: [Start, End) minus the merged child intervals.
		kids := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			kids = append(kids, [2]int64{spans[c].Start, spans[c].End})
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		cur := s.Start
		for _, k := range kids {
			if k[0] > cur {
				segs = append(segs, seg{cur, k[0], layerOf(s.Name)})
			}
			if k[1] > cur {
				cur = k[1]
			}
		}
		if s.End > cur {
			segs = append(segs, seg{cur, s.End, layerOf(s.Name)})
		}
	}
	type edge struct {
		t     int64
		delta int
		layer string
	}
	edges := make([]edge, 0, 2*len(segs))
	for _, s := range segs {
		edges = append(edges, edge{s.start, +1, s.layer}, edge{s.end, -1, s.layer})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
	out := map[string]float64{}
	active := map[string]int{}
	total := 0
	for i, e := range edges {
		if i > 0 && total > 0 {
			if dt := float64(e.t - edges[i-1].t); dt > 0 {
				for layer, n := range active {
					out[layer] += dt * float64(n) / float64(total)
				}
			}
		}
		active[e.layer] += e.delta
		total += e.delta
		if active[e.layer] == 0 {
			delete(active, e.layer)
		}
	}
	return out
}

// layerSums accumulates per-op layer attributions and counters.
type layerSums struct {
	ops    int
	totalM float64 // Σ traced op wall time, ms
	layers map[string]float64
	// figures holds the wall time of each experiments.* span.
	figures map[string]float64
	counts  map[string]float64
	// worst is the largest |Σ layers − op time| seen, in ms.
	worst float64
}

func newLayerSums() *layerSums {
	return &layerSums{layers: map[string]float64{}, figures: map[string]float64{}, counts: map[string]float64{}}
}

func (l *layerSums) add(wall time.Duration, spans []span, counts map[string]float64) {
	l.ops++
	ms := float64(wall.Nanoseconds()) / 1e6
	l.totalM += ms
	var sum float64
	for k, v := range attribute(spans) {
		l.layers[k] += v / 1e6
		sum += v / 1e6
	}
	if d := sum - ms; d > l.worst || -d > l.worst {
		l.worst = max(d, -d)
	}
	for k, v := range counts {
		l.counts[k] += v
	}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "experiments.") {
			l.figures[s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
}

// report adds each layer's mean self time per op, the mean traced op
// time and each figure's mean wall time, and checks the identity
// Σ layers + unattributed = traced op time.
func (l *layerSums) report(o *outcome) {
	n := float64(max(l.ops, 1))
	names := make([]string, 0, len(l.layers))
	for k := range l.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	var sum float64
	for _, k := range names {
		o.add(k+"_ms", l.layers[k]/n, "ms", l.ops)
		sum += l.layers[k] / n
	}
	o.add("op.traced_ms", l.totalM/n, "ms", l.ops)
	for k, v := range l.figures {
		o.add(k+"_ms", v/n, "ms", l.ops)
	}
	fmt.Printf("  attribution: Σ layer self times %.6f ms = traced op %.6f ms (worst per-op gap %.3g ms)\n",
		sum, l.totalM/n, l.worst)
	if l.worst > 1e-3 {
		o.failf("layer self times miss the traced op time by %.3g ms", l.worst)
	}
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  spans: %d written to %s\n", len(t.kept), path)
	return nil
}

// benchSpec is the part of BENCHMARK.json the program checks itself
// against: every run must report exactly the metrics listed for its
// mode, with the listed units.
type benchSpec struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// conform makes o's metrics match BENCHMARK.json's list for the mode:
// listed metrics the workload does not exercise are reported as 0
// (per-layer only), and an unlisted or missing metric, or a unit
// mismatch, fails the run.
func conform(o *outcome, traced bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	have := map[string]metric{}
	for _, m := range o.metrics {
		have[m.Name] = m
	}
	var kept []metric
	for _, want := range list {
		m, ok := have[want.Name]
		switch {
		case !ok && traced:
			m = metric{Name: want.Name, Unit: want.Unit}
		case !ok:
			o.failf("metric %s was not measured", want.Name)
			continue
		case m.Unit != want.Unit:
			o.failf("metric %s has unit %s, BENCHMARK.json says %s", m.Name, m.Unit, want.Unit)
		}
		delete(have, want.Name)
		kept = append(kept, m)
	}
	for name := range have {
		o.failf("metric %s is not listed in BENCHMARK.json", name)
	}
	o.metrics = kept
	return nil
}
