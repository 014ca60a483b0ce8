// Command perfgate measures the hot paths the paper's §7 evaluation
// runs through and holds them to the committed record, BENCH.json.
// The record has one schema in five parts:
//
//   - singles: the shipped implementation's ns/op, allocs/op and B/op
//     for the region tick, the client's monitored per-slot market step,
//     the Prop. 5 bid, the Table 3 macro run, the 10⁴-lane fleet run,
//     and each hot branch of the quote server;
//   - speedups: Table 3 with the trace memo off against on;
//   - normalized: the 2,000-lane fleet run and the client's per-slot
//     market step, each timed as a multiple of a sort yardstick that
//     runs no repository code;
//   - overheads: the Noop default against a live metrics registry,
//     flight recorder or tsdb scrape plane, for micro operations and
//     end-to-end runs;
//   - quote: served-quote throughput and a wall-clock p99 sample, kept
//     for trend-watching and not gated (both depend on the machine).
//
// Every gate (see check) is a ratio or an allocation count.
//
// Usage:
//
//	perfgate -out BENCH.json          # full measurement; writes the record
//	perfgate -quick -gate BENCH.json  # CI gate: quick re-measure, compare, write nothing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

// The gates' thresholds.
const (
	// ratioTolerance is how much a speedup's optimized/baseline ratio
	// may worsen, relative to the committed ratio, before the gate
	// fails.
	ratioTolerance = 0.10
	// minMemoSpeedup: Table 3 with a warm trace memo must be no slower
	// than with the memo off, and must allocate less.
	minMemoSpeedup = 1.0
	// maxMarketAllocs and maxMarketBytes cap client.market. The live
	// quote window serves the per-slot market fetch allocation-free up
	// to the region tick's own bookkeeping (2 allocs and a few hundred
	// bytes measured), where the legacy snapshot path burned ~300 KB.
	maxMarketAllocs = 8
	maxMarketBytes  = 4096
	// maxMacroOverheadPct is the end-to-end budget of instrumentation
	// (metrics, flight recorder, tsdb scrape) over the Noop default.
	maxMacroOverheadPct = 5.0
	// maxFleetRunRatio and maxMarketStepRatio cap the normalized
	// pairs' median ratios in both modes: each is 1.5× its median over
	// 40 quick runs on a 2-vCPU Xeon VM (DESIGN.md §10).
	maxFleetRunRatio   = 1.468
	maxMarketStepRatio = 0.003926
)

// Measurement sizes for the full record and for -quick.
const (
	// reps per side for singles and speedups: the fastest rep is
	// reported, and a pair's delta is the median of its paired deltas.
	reps = 5
	// overheadReps: seven reps keep the macro medians robust to up to
	// three noise-polluted reps per side — with five, a busy machine
	// flips the borderline pairs across the budget line.
	overheadReps = 7
	// quickReps and quickBenchtime size the CI re-measure: noisier,
	// much faster.
	quickReps      = 3
	quickBenchtime = "50ms"
	// normalizedReps is the normalized pairs' rep count in both modes:
	// with three, one rep that a burst of load hit on one side only
	// could move the median ratio by half.
	normalizedReps = 7
	// fleetLanes sizes the lanes.fleet_tick single. The record is
	// fleet-scale; the CI re-measure needs far fewer lanes, and the
	// lanes.fleet_run pair runs that many in both modes, so that one
	// ceiling holds both.
	fleetLanes, quickFleetLanes = 10_000, 2_000
	// p99Samples is how many served quotes the p99 is taken over.
	p99Samples, quickP99Samples = 200_000, 20_000
)

// Result is one measured operation: the fastest of its reps.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Speedup compares the legacy implementation of an operation against
// the shipped one. DeltaNsPerOp is the median of the per-rep paired
// differences (baseline − optimized; positive = optimized is faster).
// SpeedupX and Ratio are baseline/optimized and its inverse, from each
// side's fastest rep. Ratio is what the gate tracks: it is
// dimensionless, so a record from one machine constrains another.
type Speedup struct {
	Name         string  `json:"name"`
	Macro        bool    `json:"macro,omitempty"`
	Baseline     Result  `json:"baseline"`
	Optimized    Result  `json:"optimized"`
	DeltaNsPerOp float64 `json:"delta_ns_per_op"`
	SpeedupX     float64 `json:"speedup_x"`
	Ratio        float64 `json:"ratio"`
}

// Normalized times an operation against the sort yardstick, rep by
// rep at GOMAXPROCS 1, so the fleet run's shard count stays out of the
// ratio. Ratio is the median over reps of the operation's ns/op over
// the yardstick's in the same rep; the two Results are each side's
// fastest rep.
type Normalized struct {
	Name      string  `json:"name"`
	Yardstick Result  `json:"yardstick"`
	Op        Result  `json:"op"`
	Ratio     float64 `json:"ratio"`
}

// Overhead compares an operation under the Noop default against the
// same operation instrumented. DeltaNsPerOp is the median of the
// per-rep paired differences (instrumented − noop). Micro pairs
// compare nanosecond-scale operations against a baseline of a few
// nanoseconds, so a percentage would be headline noise ("+1700%" of
// 2 ns): only macro (end-to-end) pairs carry OverheadPct, the delta
// over the noop side's fastest rep, and only they have a budget.
type Overhead struct {
	Name         string  `json:"name"`
	Macro        bool    `json:"macro,omitempty"`
	Noop         Result  `json:"noop"`
	Instrumented Result  `json:"instrumented"`
	DeltaNsPerOp float64 `json:"delta_ns_per_op"`
	OverheadPct  float64 `json:"overhead_pct,omitempty"`
}

// Quote is the served one-time quote's throughput, implied by its
// fastest rep, and the 99th-percentile latency of P99Samples calls
// timed one by one.
type Quote struct {
	QuotesPerSec float64 `json:"quotes_per_sec"`
	P99Micros    float64 `json:"p99_micros"`
	P99Samples   int     `json:"p99_samples"`
}

// Report is the BENCH.json document.
type Report struct {
	Singles    []Result     `json:"singles"`
	Speedups   []Speedup    `json:"speedups"`
	Normalized []Normalized `json:"normalized"`
	Overheads  []Overhead   `json:"overheads"`
	Quote      Quote        `json:"quote"`
}

// run benchmarks fn once, from a trace memo reset to one canonical
// configuration (64 entries, empty). Without the reset, rep k of one
// benchmark runs against whatever memo contents rep k−1 of another
// left behind, and the fastest-of-reps numbers drift with benchmark
// order. Benchmarks that measure a specific memo configuration
// (table3Baseline, table3Optimized) set their own on top.
func run(name string, fn func(*testing.B)) testing.BenchmarkResult {
	trace.SetMemoCapacity(64)
	trace.ResetMemo()
	r := testing.Benchmark(fn)
	if r.N == 0 {
		// testing.Benchmark discards the failure message.
		fatalf("benchmark %s failed", name)
	}
	return r
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// better returns the faster of best and r; r wins when first.
func better(best Result, r testing.BenchmarkResult, first bool) Result {
	if ns := nsPerOp(r); first || ns < best.NsPerOp {
		best.N = r.N
		best.NsPerOp = ns
		best.AllocsPerOp = r.AllocsPerOp()
		best.BytesPerOp = r.AllocedBytesPerOp()
	}
	return best
}

// single measures one operation, fastest of reps.
func single(name string, fn func(*testing.B), reps int) Result {
	r := Result{Name: name}
	for i := 0; i < reps; i++ {
		r = better(r, run(name, fn), i == 0)
	}
	return r
}

// pair measures two operations as a paired design: each rep runs both
// sides back to back, alternating which goes first, so both land in
// the same thermal and frequency window, and the result is the median
// over reps of stat(a's ns/op, b's ns/op) — a difference or a ratio.
// Fastest-of-N on each side independently is biased on a drifting
// machine — each side's best window is a different window; pairing
// cancels the drift, and the median sheds reps that a background
// process polluted. The returned per-side results are each side's
// fastest rep.
func pair(name, aSide, bSide string, a, b func(*testing.B), reps int, stat func(a, b float64) float64) (ra, rb Result, median float64) {
	ra, rb = Result{Name: name + "/" + aSide}, Result{Name: name + "/" + bSide}
	stats := make([]float64, reps)
	for i := range stats {
		var x, y testing.BenchmarkResult
		if i%2 == 0 {
			x, y = run(ra.Name, a), run(rb.Name, b)
		} else {
			y, x = run(rb.Name, b), run(ra.Name, a)
		}
		ra, rb = better(ra, x, i == 0), better(rb, y, i == 0)
		stats[i] = stat(nsPerOp(x), nsPerOp(y))
	}
	sort.Float64s(stats)
	return ra, rb, stats[reps/2] // every reps constant is odd
}

func delta(a, b float64) float64 { return b - a }

func speedup(name string, macro bool, baseline, optimized func(*testing.B), reps int) Speedup {
	a, b, d := pair(name, "baseline", "optimized", baseline, optimized, reps, delta)
	return Speedup{Name: name, Macro: macro, Baseline: a, Optimized: b, DeltaNsPerOp: -d,
		SpeedupX: a.NsPerOp / b.NsPerOp, Ratio: b.NsPerOp / a.NsPerOp}
}

// normalizedGates are the operations timed against the sort
// yardstick, each with the ceiling on its median ratio.
var normalizedGates = []struct {
	name    string
	op      func(*testing.B)
	ceiling float64
}{
	{"lanes.fleet_run", fleetRun(quickFleetLanes), maxFleetRunRatio},
	{"client.market_step", benchMarket, maxMarketStepRatio},
}

// normalized pairs op with the sort yardstick at GOMAXPROCS 1.
func normalized(name string, op func(*testing.B), reps int) Normalized {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	y, o, ratio := pair(name, "yardstick", "op", yardstick, op, reps, func(y, o float64) float64 { return o / y })
	return Normalized{Name: name, Yardstick: y, Op: o, Ratio: ratio}
}

func overhead(name string, macro bool, noop, instrumented func(*testing.B), reps int) Overhead {
	a, b, d := pair(name, "noop", "instrumented", noop, instrumented, reps, delta)
	o := Overhead{Name: name, Macro: macro, Noop: a, Instrumented: b, DeltaNsPerOp: d}
	if macro {
		o.OverheadPct = 100 * d / a.NsPerOp
	}
	return o
}

// measure takes a fresh report. quick selects the CI sizes and, of the
// overhead pairs, measures only event.emit, whose gate is an
// allocation count; the macro pairs need the full reps and benchtime
// to resolve a 5% budget.
func measure(quick bool) (Report, error) {
	n, oReps, lanesN, samples := reps, overheadReps, fleetLanes, p99Samples
	if quick {
		n, oReps, lanesN, samples = quickReps, quickReps, quickFleetLanes, quickP99Samples
	}
	rep := Report{
		Singles: []Result{
			single("core.tick", benchTick, n),
			single("client.market", benchMarket, n),
			single("core.persistent_bid", benchPersistentBid, n),
			single("experiments.table3", table3Optimized, n),
			single("lanes.fleet_tick", fleetRun(lanesN), n),
		},
		Speedups: []Speedup{
			speedup("experiments.table3", true, table3Baseline, table3Optimized, n),
		},
	}
	for _, g := range normalizedGates {
		rep.Normalized = append(rep.Normalized, normalized(g.name, g.op, normalizedReps))
	}
	rep.Overheads = overheads(oReps, quick)
	singles, quote, err := quotes(n, samples)
	if err != nil {
		return Report{}, err
	}
	rep.Singles = append(rep.Singles, singles...)
	rep.Quote = quote
	return rep, nil
}

func findSpeedup(rep Report, name string) (Speedup, bool) {
	for _, s := range rep.Speedups {
		if s.Name == name {
			return s, true
		}
	}
	return Speedup{}, false
}

// ratioLimit is the worst optimized/baseline ratio the gate accepts
// for a committed speedup.
func ratioLimit(committed Speedup) float64 {
	return committed.Ratio * (1 + ratioTolerance)
}

// check applies every gate to a fresh report and, when committed is
// not nil, holds it to the committed record. It returns one line per
// failed gate, each starting with the measurement's name. quick skips
// the macro overhead budget, which the CI re-measure does not measure.
func check(fresh Report, committed *Report, quick bool) []string {
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	// The quote path (one atomic table load, a grid resolve, an audit
	// append) must allocate nothing in any branch that runs hot: the
	// first allocation there is the first GC pause at millions of
	// quotes per second.
	quoteAllocs := func(rep Report, label string) {
		for _, s := range rep.Singles {
			if strings.HasPrefix(s.Name, "serve.quote_") && s.AllocsPerOp != 0 {
				fail("%s: %d allocs/op (%d B/op) in the %s report, want 0", s.Name, s.AllocsPerOp, s.BytesPerOp, label)
			}
		}
	}
	quoteAllocs(fresh, "fresh")
	for _, s := range fresh.Singles {
		if s.Name != "client.market" {
			continue
		}
		if s.AllocsPerOp > maxMarketAllocs {
			fail("%s: %d allocs/op exceeds the %d ceiling", s.Name, s.AllocsPerOp, maxMarketAllocs)
		}
		if s.BytesPerOp > maxMarketBytes {
			fail("%s: %d B/op exceeds the %d ceiling", s.Name, s.BytesPerOp, maxMarketBytes)
		}
	}
	for _, s := range fresh.Speedups {
		if s.Name != "experiments.table3" {
			continue
		}
		if s.SpeedupX < minMemoSpeedup {
			fail("%s: trace memo speedup %.2fx is below %gx", s.Name, s.SpeedupX, minMemoSpeedup)
		}
		if s.Optimized.AllocsPerOp >= s.Baseline.AllocsPerOp {
			fail("%s: trace memo allocs/op did not drop (%d -> %d)", s.Name, s.Baseline.AllocsPerOp, s.Optimized.AllocsPerOp)
		}
	}
	for _, g := range normalizedGates {
		i := slices.IndexFunc(fresh.Normalized, func(n Normalized) bool { return n.Name == g.name })
		switch {
		case i < 0:
			fail("%s: normalized pair not measured", g.name)
		case fresh.Normalized[i].Ratio > g.ceiling:
			fail("%s: median ratio %.4g to the sort yardstick exceeds the ceiling %g", g.name, fresh.Normalized[i].Ratio, g.ceiling)
		}
	}
	for _, o := range fresh.Overheads {
		if o.Name == "event.emit" && o.Instrumented.AllocsPerOp != 0 {
			fail("%s: flight-recorder emit allocates (%d allocs/op, want 0)", o.Name, o.Instrumented.AllocsPerOp)
		}
		if o.Macro && !quick && o.OverheadPct > maxMacroOverheadPct {
			fail("%s: macro overhead %+.2f%% exceeds the %g%% budget", o.Name, o.OverheadPct, maxMacroOverheadPct)
		}
	}
	if committed == nil {
		return fails
	}
	quoteAllocs(*committed, "committed")
	for _, c := range committed.Speedups {
		s, ok := findSpeedup(fresh, c.Name)
		switch {
		case !ok:
			fail("%s: speedup in the committed record but not measured", c.Name)
		case s.Ratio > ratioLimit(c):
			fail("%s: ratio %.4f exceeds the limit %.4f (committed %.4f + %g%%)",
				c.Name, s.Ratio, ratioLimit(c), c.Ratio, 100*ratioTolerance)
		}
	}
	return fails
}

// readReport decodes a record, refusing fields the schema does not
// have, so the schema and the committed record cannot drift apart.
func readReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("decoding %s: %w", path, err)
	}
	return rep, nil
}

func show(rep Report, committed *Report) {
	for _, s := range rep.Singles {
		fmt.Printf("%-28s %14.1f ns/op %8d allocs/op %10d B/op\n", s.Name, s.NsPerOp, s.AllocsPerOp, s.BytesPerOp)
	}
	fmt.Printf("%-28s %.0f quotes/sec, p99 %.3fµs over %d calls\n",
		"serve.quote", rep.Quote.QuotesPerSec, rep.Quote.P99Micros, rep.Quote.P99Samples)
	for _, s := range rep.Speedups {
		fmt.Printf("%-28s baseline %14.1f ns/op   optimized %14.1f ns/op   speedup %5.2fx   allocs %d -> %d\n",
			s.Name, s.Baseline.NsPerOp, s.Optimized.NsPerOp, s.SpeedupX, s.Baseline.AllocsPerOp, s.Optimized.AllocsPerOp)
	}
	for i, n := range rep.Normalized {
		fmt.Printf("%-28s yardstick %13.1f ns/op   op %14.1f ns/op   median ratio %.4g   ceiling %g\n",
			n.Name, n.Yardstick.NsPerOp, n.Op.NsPerOp, n.Ratio, normalizedGates[i].ceiling)
	}
	for _, o := range rep.Overheads {
		fmt.Printf("%-28s noop %14.1f ns/op   instrumented %14.1f ns/op   ", o.Name, o.Noop.NsPerOp, o.Instrumented.NsPerOp)
		if o.Macro {
			fmt.Printf("overhead %+6.2f%%\n", o.OverheadPct)
		} else {
			fmt.Printf("delta %+8.1f ns/op   allocs %d\n", o.DeltaNsPerOp, o.Instrumented.AllocsPerOp)
		}
	}
	if committed == nil {
		return
	}
	for _, c := range committed.Speedups {
		if s, ok := findSpeedup(rep, c.Name); ok {
			fmt.Printf("gate %-23s committed ratio %.4f   measured %.4f   limit %.4f\n", c.Name, c.Ratio, s.Ratio, ratioLimit(c))
		}
	}
}

func main() {
	out := flag.String("out", "BENCH.json", "write the measured record to this file (not with -gate)")
	gate := flag.String("gate", "", "check a fresh measurement against this committed record and write nothing")
	quick := flag.Bool("quick", false, "CI sizes: 50ms benchtime, 3 reps, a 2,000-lane fleet, and event.emit as the only overhead pair")
	flag.Parse()

	var committed *Report
	if *gate != "" {
		rec, err := readReport(*gate)
		if err != nil {
			fatalf("%v", err)
		}
		committed = &rec
	}
	if *quick {
		// Registered after Parse, so the testing flags stay off the
		// command line.
		testing.Init()
		if err := flag.Set("test.benchtime", quickBenchtime); err != nil {
			fatalf("setting benchtime: %v", err)
		}
	}
	rep, err := measure(*quick)
	if err != nil {
		fatalf("%v", err)
	}
	show(rep, committed)
	fails := check(rep, committed, *quick)
	for _, f := range fails {
		fmt.Println("FAIL:", f)
	}
	if committed == nil {
		js, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("encoding the record: %v", err)
		}
		if err := os.WriteFile(*out, append(js, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Println("wrote", *out)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Println("perfgate: every gate holds")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfgate: "+format+"\n", args...)
	os.Exit(1)
}
