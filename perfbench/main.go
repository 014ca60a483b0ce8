// Command perfbench is the repository benchmark. It measures the three
// paths a user of this repository touches, end to end and layer by
// layer:
//
//	paper  the §7.1 evaluation (Table 3, Figs. 5 and 6 at -runs 3),
//	       driven through internal/experiments as cmd/experiments does
//	fleet  a 10⁴-lane struct-of-arrays fleet run through internal/lanes,
//	       as cmd/corebench's fleetConfig sizes it
//	quote  GET /v1/quote over real loopback HTTP against the
//	       internal/serve handler, built as cmd/spotbidd builds it
//
// One run measures one workload for -seconds and prints a human report
// followed, as its last line, by one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, p50/p90 latency, peak RSS), measured with no tracing.
// With -trace 1 the run drives the same work through the layers'
// public calls with spans recorded around each call, and the metrics
// are per layer. -steady k runs every workload k times in child
// processes and prints each metric's median, quartiles and spread.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload paper -seed 1 -seconds 30 -trace 0
//	perfbench -steady 5 -seconds 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind it (0
// for a single measurement); it is printed in the human report, not in
// the result line, whose schema is fixed.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	// notes are checks that failed outside the op count (a golden
	// gate, an attribution identity); any note makes the run incorrect.
	notes   []string
	metrics []metric
}

func (o *outcome) add(name string, v float64, unit string, n int) {
	o.metrics = append(o.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// value returns the named metric's value, or 0.
func (o *outcome) value(name string) float64 {
	for _, m := range o.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func (o *outcome) failf(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: an untraced end-to-end run and a
// traced per-layer run, both bounded by d. Why each exists is recorded
// in BENCHMARK.json and README.md.
type workload struct {
	measure func(seed int64, d time.Duration) (*outcome, error)
	traced  func(seed int64, d time.Duration) (*outcome, error)
}

var workloads = map[string]workload{
	"paper": {measurePaper, tracePaper},
	"fleet": {measureFleet, traceFleet},
	"quote": {measureQuote, traceQuote},
}

// workloadOrder is the order -steady runs the workloads in (reversed
// on every other round).
var workloadOrder = []string{"paper", "fleet", "quote"}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper, fleet or quote")
		seed    = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds = flag.Int("seconds", 30, "measurement length of one run")
		traceOn = flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
		spans   = flag.String("spans", ".bench_build/spans", "traced runs write their spans to <spans>-<workload>.jsonl")
		steady  = flag.Int("steady", 0, "steadiness report: run every workload (or just -workload) this many times in child processes")
	)
	flag.Parse()
	if *seconds < 1 {
		fatalf("-seconds must be at least 1, got %d", *seconds)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("-trace must be 0 or 1, got %d", *traceOn)
	}
	w, ok := workloads[*name]
	if !ok && (*steady == 0 || *name != "") {
		fatalf("unknown workload %q (want paper, fleet or quote)", *name)
	}
	d := time.Duration(*seconds) * time.Second
	if *steady > 0 {
		order := workloadOrder
		if *name != "" {
			order = []string{*name}
		}
		if err := steadiness(order, *steady, *seed, *seconds, *traceOn); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if err := checkRoot(); err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("perfbench: workload %s, seed %d, %ds, trace %d\n", *name, *seed, *seconds, *traceOn)
	diag := startDiag()
	var out *outcome
	var err error
	if *traceOn == 1 {
		spanOut = fmt.Sprintf("%s-%s.jsonl", *spans, *name)
		out, err = w.traced(*seed, d)
	} else {
		out, err = w.measure(*seed, d)
		if err == nil {
			out.add("peak_rss_mb", peakRSSMB(), "MB", 0)
		}
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if err := conform(out, *traceOn == 1); err != nil {
		fatalf("%v", err)
	}
	diag.print()
	printOutcome(out)
}

// printOutcome writes the human report and then the result line.
func printOutcome(out *outcome) {
	res := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]json.RawMessage{}}
	for _, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.failf("metric %s is not finite", m.Name)
			m.Value = 0
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("  %-34s %16.6f %-6s%s\n", m.Name, m.Value, m.Unit, n)
		js, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit})
		if err != nil {
			fatalf("encoding %s: %v", m.Name, err)
		}
		res.Metrics[m.Name] = js
	}
	for _, note := range out.notes {
		fmt.Printf("  CHECK FAILED: %s\n", note)
	}
	fmt.Printf("  ops attempted %d, failed %d\n", out.attempted, out.failed)
	res.Correct = out.failed == 0 && len(out.notes) == 0 && out.attempted > 0
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// checkRoot fails fast outside a repository checkout: the workloads
// read the experiment goldens relative to the root.
func checkRoot() error {
	for _, p := range []string{"go.mod", goldenDir} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %v", err)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// nproc is the parallelism every workload runs at: one process, at
// most this many busy goroutines or connections.
var nproc = runtime.NumCPU()

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
