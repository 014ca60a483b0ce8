// Package obs is the reproduction's deterministic observability layer:
// counters, gauges, fixed-bucket histograms, and span-style per-slot
// timers, with zero dependencies beyond the standard library. The
// production-scale north star (ROADMAP) needs the telemetry loop that
// feedback-control bidding builds on — queue length L(t), accepted-bid
// counts N(t), retry volumes, fallback activations — but the repo's
// experiments are goldens-tested, so every recorded value must be a
// deterministic function of the simulation seed:
//
//   - no wall-clock reads ever enter a recorded value; durations are
//     measured in simulated slots via Span;
//   - Snapshot output is sorted by metric name and rendered with fixed
//     formatting, so the same seeded run produces byte-identical text
//     and JSON on every execution.
//
// A nil *Registry is the Noop registry and is the default everywhere:
// every method is nil-safe and returns immediately, so uninstrumented
// callers pay one pointer comparison and seeded runs stay bit-identical
// to the pre-instrumentation output (the determinism guard test in
// internal/experiments asserts exactly this).
//
// Counters are safe for concurrent use (the parallel experiment runner
// hammers one registry from many goroutines); gauges and histograms are
// mutex-guarded. Determinism of *float* aggregates (histogram sums)
// additionally requires a deterministic observation order, which the
// single-goroutine simulation loop provides; parallel sweeps give each
// run its own registry and merge snapshots in run order.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Noop is the nil registry: every operation on it is a no-op. It exists
// for documentation; passing a literal nil *Registry is equivalent.
var Noop *Registry

// Registry holds a namespace of metrics. The zero value is not usable —
// construct with New. A nil *Registry is the Noop registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterValue returns the named counter's current count without
// creating the metric: an unregistered name reads 0 and leaves the
// registry untouched, so reading a result back (a test, a sweep's
// summary row) never adds a metric to a snapshot it then compares.
// Nil-safe. Decisions inside a run read their inputs from the
// component that counts them, never from a registry by name.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil gauge, whose methods are no-ops.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Bounds must be sorted ascending;
// an implicit +Inf overflow bucket is always appended. Later calls
// with the same name return the existing histogram regardless of the
// bounds argument (first registration wins). A nil registry returns a
// nil histogram, whose methods are no-ops.
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(uppers)
		r.hists[name] = h
	}
	return h
}

// StartSpan opens a span-style slot timer named name at startSlot.
// Ending the span records its duration in slots into the histogram of
// the same name (SlotBuckets bounds). Durations come from the simulated
// clock, never the wall clock, so recorded values are deterministic.
// A nil registry returns a nil span, whose End is a no-op.
func (r *Registry) StartSpan(name string, startSlot int) *Span {
	if r == nil {
		return nil
	}
	return &Span{h: r.Histogram(name, SlotBuckets), start: startSlot}
}

// Counter is a monotonically increasing integer metric. It is safe for
// concurrent use. A nil counter ignores every operation.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can move both ways: a last-written
// value (Set) or a running level (Add). A nil gauge ignores every
// operation.
type Gauge struct {
	mu  sync.Mutex
	val float64
	set bool
}

// Set records v as the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.val, g.set = v, true
	g.mu.Unlock()
}

// Add shifts the current value by dv.
func (g *Gauge) Add(dv float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.val, g.set = g.val+dv, true
	g.mu.Unlock()
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

// Span measures a duration in simulated slots. A nil span ignores End.
type Span struct {
	h     *Histogram
	start int
	done  bool
}

// End closes the span at endSlot, recording max(0, end−start) slots
// into the span's histogram. A second End is a no-op.
func (s *Span) End(endSlot int) {
	if s == nil || s.done {
		return
	}
	s.done = true
	d := endSlot - s.start
	if d < 0 {
		d = 0
	}
	s.h.Observe(float64(d))
}

// Default bucket bounds. All are in ascending order; the histogram
// appends an implicit +Inf overflow bucket.
var (
	// SlotBuckets spans one five-minute slot up to a week of slots.
	SlotBuckets = []float64{1, 2, 6, 12, 48, 144, 288, 864, 2016}
	// PriceBuckets spans the 2014 spot-price catalog in USD/hour.
	PriceBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}
	// MillisBuckets spans retry backoff delays in milliseconds.
	MillisBuckets = []float64{50, 100, 200, 500, 1000, 2000, 5000}
	// LoadBuckets spans provider queue lengths L(t) in bids.
	LoadBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	// MicrosBuckets spans serving-path latencies and deadline budgets
	// in microseconds (50 µs hot path up to multi-second budgets).
	MicrosBuckets = []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000, 1e6, 5e6}
)

// Histogram is a fixed-bucket histogram: observation x lands in the
// first bucket with x ≤ upper bound (upper-inclusive, Prometheus "le"
// convention); anything above the last bound lands in the implicit
// +Inf overflow bucket.
//
// Non-finite observations cannot be binned meaningfully: NaN and −Inf
// are rejected (counted in Rejected, not in Count), while +Inf is
// routed to the overflow bucket — it is counted in Count but excluded
// from Sum/Min/Max so the finite aggregates stay finite.
//
// A nil histogram ignores every operation.
type Histogram struct {
	mu       sync.Mutex
	uppers   []float64 // sorted ascending; overflow bucket is implicit
	counts   []int64   // len(uppers)+1; last entry is the overflow bucket
	count    int64     // binned observations (overflow included)
	rejected int64     // NaN / −Inf observations
	sum      float64   // finite observations only
	min, max float64   // finite observations only; valid when finiteN > 0
	finiteN  int64
}

func newHistogram(uppers []float64) *Histogram {
	bounds := make([]float64, len(uppers))
	copy(bounds, uppers)
	sort.Float64s(bounds)
	return &Histogram{uppers: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.observeLocked(x)
	h.mu.Unlock()
}

// ObserveBatch records every observation in xs under a single lock
// acquisition — the bulk path for recorders that emit thousands of
// points per call (e.g. a whole generated trace), where per-Observe
// locking would dominate the instrumentation cost. It leaves exactly
// the state one Observe per element leaves: finite values update the
// aggregates in locals, with the same sequential sum, stored once at
// the end; NaN and ±Inf go through observeLocked.
func (h *Histogram) ObserveBatch(xs []float64) {
	if h == nil || len(xs) == 0 {
		return
	}
	h.mu.Lock()
	uppers, counts := h.uppers, h.counts
	count, sum, lo, hi, finiteN := h.count, h.sum, h.min, h.max, h.finiteN
	for _, x := range xs {
		if x-x != 0 { // NaN or ±Inf
			h.count, h.sum, h.min, h.max, h.finiteN = count, sum, lo, hi, finiteN
			h.observeLocked(x)
			count = h.count
			continue
		}
		i := 0
		for i < len(uppers) && uppers[i] < x {
			i++
		}
		counts[i]++
		count++
		sum += x
		if finiteN == 0 || x < lo {
			lo = x
		}
		if finiteN == 0 || x > hi {
			hi = x
		}
		finiteN++
	}
	h.count, h.sum, h.min, h.max, h.finiteN = count, sum, lo, hi, finiteN
	h.mu.Unlock()
}

func (h *Histogram) observeLocked(x float64) {
	if math.IsNaN(x) || math.IsInf(x, -1) {
		h.rejected++
		return
	}
	// First bound ≥ x: upper-inclusive bucket. A linear scan beats
	// sort.SearchFloat64s's closure dispatch for the ≤ 10-bound bucket
	// lists every recorder here uses.
	i := 0
	for i < len(h.uppers) && h.uppers[i] < x {
		i++
	}
	h.counts[i]++
	h.count++
	if math.IsInf(x, 1) {
		return // overflow-bucketed, excluded from the finite aggregates
	}
	h.sum += x
	if h.finiteN == 0 || x < h.min {
		h.min = x
	}
	if h.finiteN == 0 || x > h.max {
		h.max = x
	}
	h.finiteN++
}

// Count reports the number of binned observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Rejected reports the number of NaN/−Inf observations turned away.
func (h *Histogram) Rejected() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rejected
}

// Sum reports the sum of finite observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean reports Sum/finite-count, or NaN when nothing finite was
// observed.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.finiteN == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.finiteN)
}

// Quantile estimates the q-th quantile (q ∈ [0,1]) by linear
// interpolation within the bucket holding the q-th observation. An
// empty histogram returns NaN; a quantile landing in the overflow
// bucket returns the largest finite observation (or the last bound if
// only +Inf was ever observed). q outside [0,1] panics — a programming
// error, matching dist.checkProb.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("obs: quantile argument %v outside [0,1]", q))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if rank > next || c == 0 {
			cum = next
			continue
		}
		if i == len(h.uppers) {
			// Overflow bucket: no finite upper edge to interpolate to.
			if h.finiteN > 0 {
				return h.max
			}
			return h.uppers[len(h.uppers)-1]
		}
		lo := h.lowerEdge(i)
		up := h.uppers[i]
		frac := 0.0
		if c > 0 {
			frac = (rank - cum) / float64(c)
		}
		return lo + frac*(up-lo)
	}
	if h.finiteN > 0 {
		return h.max
	}
	return h.uppers[len(h.uppers)-1]
}

// lowerEdge returns bucket i's lower interpolation edge: the previous
// bound, floored at the smallest finite observation (so quantiles of
// data living entirely inside one bucket stay inside the data range).
func (h *Histogram) lowerEdge(i int) float64 {
	var lo float64
	if i > 0 {
		lo = h.uppers[i-1]
	} else if h.finiteN > 0 && h.min < h.uppers[0] {
		lo = h.min
	} else {
		lo = h.uppers[0]
	}
	if h.finiteN > 0 && h.min > lo {
		lo = h.min
	}
	return lo
}
