// Package experiments regenerates every table and figure of the
// paper's evaluation (§4.3, §7) against the simulated substrate:
//
//	Figure3  — spot-price PDFs + Pareto/exponential fits (§4.3)
//	Table3   — optimal bid prices per instance type (§7.1)
//	Figure4  — an example job timeline with interruptions
//	Figure5  — one-time spot vs on-demand cost
//	Figure6  — persistent vs one-time: price, completion, cost
//	Table4   — MapReduce client settings, bids, minimum M, cost split
//	Figure7  — MapReduce completion time and cost vs on-demand
//	Stability— Prop. 1/2: queue boundedness and equilibrium prices
//
// Each experiment returns typed rows plus a Render() text table; the
// cmd/experiments binary and the repository benchmarks drive these
// functions, and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

// Opts tunes an experiment run.
type Opts struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Runs is the number of repetitions per configuration where the
	// paper repeats ("each experiment ten times", §7) — default 10.
	Runs int
	// Days is the trace length backing each run (default 63: two
	// months of history plus room for the job itself).
	Days int
	// Metrics, when non-nil, aggregates observability data across the
	// experiment: parallel repetitions record into private registries
	// that are merged here in run order after every repetition
	// finishes, so the aggregate is deterministic regardless of
	// worker scheduling. Nil — the default — records nothing and
	// changes no behavior.
	Metrics *obs.Registry
	// Trace, when non-nil, is the flight recorder threaded through the
	// experiment. Sweeps that repeat a cell in parallel (ChaosSweep,
	// FailoverSweep) instrument ONLY run index 0 of each cell: that
	// run's emissions are sequential within its own goroutine and cells
	// execute in order, so the recorded stream is deterministic — one
	// seed, one byte sequence per export format — regardless of worker
	// scheduling. Table3 records every trace generation. Nil — the
	// default — records nothing and changes no behavior.
	Trace *event.Recorder
	// TSDB, when non-nil, is the time-series store the experiment
	// scrapes into. Under the same run-0-only discipline as Trace (and
	// serialized the same way), the instrumented run's registry and
	// derived signals — breaker states, per-region health, per-cell
	// savings — are sampled every ScrapeEvery slots with the cell's
	// identity as labels, so one sweep yields one byte-stable dump.
	TSDB *tsdb.DB
	// ScrapeEvery is the scrape cadence in slots (default 144 for the
	// multi-day sweeps; serve drills default to 4 on their own).
	ScrapeEvery int
}

func (o Opts) withDefaults() Opts {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.Days == 0 {
		o.Days = 63
	}
	if o.ScrapeEvery <= 0 {
		o.ScrapeEvery = 144
	}
	return o
}

// historySlots is the two-month price-monitor window in slots.
const historySlots = 61 * 288

// regionFor builds a region with generated traces for the given
// instance types (deduplicated), all driven from one base seed.
func regionFor(types []instances.Type, seed int64, days int) (*cloud.Region, error) {
	seen := map[instances.Type]bool{}
	var traces []*trace.Trace
	for i, t := range types {
		if seen[t] {
			continue
		}
		seen[t] = true
		tr, err := trace.Generate(t, trace.GenOptions{Days: days, Seed: seed + int64(i)*1009})
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return cloud.NewRegion(traces...)
}

// offsets returns n deterministic submission offsets within one day
// (in slots) — the paper submits "at random times of the day" (§7.1).
func offsets(n int, seed int64) []int {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(288)
	}
	return out
}

// Table renders an aligned text table.
func Table(headers []string, rows [][]string) string {
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// f4 formats a price with four decimals (the paper's bid precision).
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }

// f2 formats a generic value with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// pct formats a ratio as a signed percentage.
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }
