// Package trace represents spot-price histories: the two-month price
// series users download from the provider to estimate the spot-price
// distribution F_π that every bidding strategy consumes (Fig. 1's
// "price monitor" input). It provides the slot-regular Trace type,
// AWS-style CSV (de)serialization, windowing (the "last 10 hours"
// heuristic of §7.1, day/night splits for the §4.3 KS validation),
// ECDF extraction, and a calibrated synthetic generator that replaces
// the no-longer-available Amazon history (see DESIGN.md).
package trace

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
)

// Trace is a slot-regular spot-price history: price i applies to slot
// i of the grid, i.e. the five-minute interval starting at
// Grid.Time(i).
type Trace struct {
	// Type is the instance type the prices belong to.
	Type instances.Type
	// Grid fixes the slot length and the absolute time of slot 0.
	Grid timeslot.Grid
	// Prices holds one spot price per slot, in USD per instance-hour.
	Prices []float64

	// ecdf, when non-nil, is the shared lazily-built full-series ECDF
	// cell of the memoized generation this header aliases (memo.go).
	// Window/LastHours sub-traces cover a different sample and never
	// carry it.
	ecdf *ecdfCell

	// switches and dwell describe the generation that made this
	// header, for RecordGeneration: the dwell model's regime changes
	// and its grain in slots, 0 under FullDynamics and for a trace the
	// generator did not make. Sub-traces do not carry them either.
	switches int64
	dwell    int
}

// New validates and constructs a trace.
func New(typ instances.Type, grid timeslot.Grid, prices []float64) (*Trace, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if len(prices) == 0 {
		return nil, fmt.Errorf("trace: empty price series for %s", typ)
	}
	for i, p := range prices {
		if !(p >= 0) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("trace: invalid price %v at slot %d", p, i)
		}
	}
	return &Trace{Type: typ, Grid: grid, Prices: prices}, nil
}

// Len reports the number of slots.
func (t *Trace) Len() int { return len(t.Prices) }

// Duration reports the covered time span in hours.
func (t *Trace) Duration() timeslot.Hours { return t.Grid.HoursOfSlots(t.Len()) }

// At returns the spot price in effect during slot i.
func (t *Trace) At(i int) float64 { return t.Prices[i] }

// Window returns the sub-trace covering slots [from, to). The
// sub-trace shares the price storage.
func (t *Trace) Window(from, to int) (*Trace, error) {
	if from < 0 || to > t.Len() || from >= to {
		return nil, fmt.Errorf("trace: window [%d, %d) outside [0, %d)", from, to, t.Len())
	}
	g := t.Grid
	g.Start = t.Grid.Time(from)
	return &Trace{Type: t.Type, Grid: g, Prices: t.Prices[from:to]}, nil
}

// LastHours returns the sub-trace covering the final h hours — the
// window behind the "best offline price in retrospect" baseline,
// which searches the last 10 hours of history (§7.1).
func (t *Trace) LastHours(h timeslot.Hours) (*Trace, error) {
	n := t.Grid.CeilSlots(h)
	if n > t.Len() {
		n = t.Len()
	}
	return t.Window(t.Len()-n, t.Len())
}

// ECDF builds the empirical distribution of the trace's prices, the
// F_π estimate handed to the bidding strategies. nbins ≤ 0 picks the
// histogram binning automatically.
//
// For a trace produced by the memoized generator, the default-binning
// result is built once per cached series and shared by every header
// aliasing it — NewEmpirical is a pure function of the immutable price
// slice and *Empirical is itself immutable, so a shared instance is
// observably identical to a fresh build.
func (t *Trace) ECDF(nbins int) (*dist.Empirical, error) {
	if nbins <= 0 && t.ecdf != nil {
		t.ecdf.once.Do(func() {
			t.ecdf.e, t.ecdf.err = dist.NewEmpirical(t.Prices, 0)
		})
		return t.ecdf.e, t.ecdf.err
	}
	return dist.NewEmpirical(t.Prices, nbins)
}

// DayNight splits the prices into daytime (08:00–20:00 UTC) and
// nighttime slots. §4.3 runs a two-sample KS test across this split
// to verify the price distribution is stationary over the day.
func (t *Trace) DayNight() (day, night []float64) {
	for i, p := range t.Prices {
		h := t.Grid.Time(i).Hour()
		if h >= 8 && h < 20 {
			day = append(day, p)
		} else {
			night = append(night, p)
		}
	}
	return day, night
}

// Min returns the smallest price in the trace.
func (t *Trace) Min() float64 {
	m := t.Prices[0]
	for _, p := range t.Prices[1:] {
		if p < m {
			m = p
		}
	}
	return m
}

// Max returns the largest price in the trace.
func (t *Trace) Max() float64 {
	m := t.Prices[0]
	for _, p := range t.Prices[1:] {
		if p > m {
			m = p
		}
	}
	return m
}

// Mean returns the average price over the trace.
func (t *Trace) Mean() float64 {
	var s float64
	for _, p := range t.Prices {
		s += p
	}
	return s / float64(len(t.Prices))
}

// BestOfflinePrice implements the §7.1 retrospective baseline: the
// minimal bid that would have kept an instance running continuously
// for runFor hours somewhere in this trace — i.e. the smallest over
// all runFor-length windows of that window's maximum price. It
// returns an error when the trace is shorter than the run length.
//
// The paper computes it over the last 10 hours of history and shows
// it can *underbid* the future: a cautionary baseline, not a
// strategy.
func (t *Trace) BestOfflinePrice(runFor timeslot.Hours) (float64, error) {
	n := t.Grid.CeilSlots(runFor)
	if n <= 0 {
		return 0, fmt.Errorf("trace: non-positive run length %v", float64(runFor))
	}
	if n > t.Len() {
		return 0, fmt.Errorf("trace: run length %v exceeds trace span %v", float64(runFor), float64(t.Duration()))
	}
	best := math.Inf(1)
	// Sliding-window maximum via a monotonic deque.
	deque := make([]int, 0, n) // indices, prices decreasing
	for i, p := range t.Prices {
		for len(deque) > 0 && t.Prices[deque[len(deque)-1]] <= p {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, i)
		if deque[0] <= i-n {
			deque = deque[1:]
		}
		if i >= n-1 {
			if m := t.Prices[deque[0]]; m < best {
				best = m
			}
		}
	}
	return best, nil
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	prices := make([]float64, len(t.Prices))
	copy(prices, t.Prices)
	return &Trace{Type: t.Type, Grid: t.Grid, Prices: prices}
}

// TimeOf returns the absolute start time of slot i.
func (t *Trace) TimeOf(i int) time.Time { return t.Grid.Time(i) }
