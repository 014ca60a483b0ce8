// Package timeslot provides the discrete-time arithmetic used throughout
// the spot-market model: the provider updates the spot price once per
// slot (Amazon: every five minutes), so every duration in the system —
// job execution time t_s, recovery time t_r, splitting overhead t_o —
// is ultimately measured against the slot length t_k.
//
// All absolute prices in the repository are USD per instance-hour and
// all durations are hours, matching the paper's unit conventions
// (Table 1). This package keeps the hour/slot conversions in one place
// so that off-by-one-slot bugs cannot creep into the cost models.
package timeslot

import (
	"fmt"
	"math"
	"time"
)

// DefaultSlot is the slot length used by Amazon's 2014-era spot market
// and by all of the paper's experiments: five minutes, i.e. 1/12 hour.
const DefaultSlot = Hours(5.0 / 60.0)

// Hours is a duration expressed in hours. The paper works entirely in
// hours because prices are quoted per instance-hour; using a distinct
// type prevents accidentally mixing hour-valued and slot-valued
// quantities.
type Hours float64

// HoursOf converts a time.Duration into Hours.
func HoursOf(d time.Duration) Hours { return Hours(d.Hours()) }

// Seconds constructs an Hours value from a length in seconds. Recovery
// times in the paper are given in seconds (t_r = 10s, 30s).
func Seconds(s float64) Hours { return Hours(s / 3600.0) }

// Duration converts h into a time.Duration (useful for display only;
// the simulators never use wall-clock time).
func (h Hours) Duration() time.Duration {
	return time.Duration(float64(h) * float64(time.Hour))
}

// Seconds reports h in seconds.
func (h Hours) Seconds() float64 { return float64(h) * 3600.0 }

// String formats the duration compactly, e.g. "1h", "30s", "5m".
func (h Hours) String() string {
	s := h.Seconds()
	switch {
	case s >= 3600 && s == float64(int64(s/3600))*3600:
		return fmt.Sprintf("%gh", s/3600)
	case s >= 60 && s == float64(int64(s/60))*60:
		return fmt.Sprintf("%gm", s/60)
	default:
		return fmt.Sprintf("%gs", s)
	}
}

// Grid is a discrete-time grid with a fixed slot length. Slot i covers
// the half-open interval [Start + i·Slot, Start + (i+1)·Slot).
type Grid struct {
	// Slot is the slot length t_k in hours. Must be positive.
	Slot Hours
	// Start is the absolute time of slot 0. The simulators use a
	// synthetic epoch; only differences matter.
	Start time.Time
}

// NewGrid returns a grid with the given slot length starting at the
// synthetic epoch used throughout the experiments (chosen to match the
// start of the paper's trace window, 2014-08-14 00:00 UTC).
func NewGrid(slot Hours) Grid {
	return Grid{Slot: slot, Start: Epoch}
}

// Epoch is the synthetic trace epoch: the first day of the two-month
// window over which the paper collected Amazon's spot-price history.
var Epoch = time.Date(2014, time.August, 14, 0, 0, 0, 0, time.UTC)

// SlotsPerHour reports how many slots fit in one hour (12 for the
// default five-minute slot).
func (g Grid) SlotsPerHour() float64 { return 1 / float64(g.Slot) }

// Time reports the absolute start time of slot i.
func (g Grid) Time(i int) time.Time {
	return g.Start.Add(time.Duration(i) * g.Slot.Duration())
}

// Index reports the slot index containing the absolute time tm.
// Times before Start map to negative indices.
func (g Grid) Index(tm time.Time) int {
	d := tm.Sub(g.Start)
	slot := g.Slot.Duration()
	idx := d / slot
	if d < 0 && d%slot != 0 {
		idx--
	}
	return int(idx)
}

// Slots converts a duration in hours to a (fractional) number of slots.
func (g Grid) Slots(h Hours) float64 { return float64(h) / float64(g.Slot) }

// CeilSlots converts a duration in hours to the number of whole slots
// needed to cover it. A 1-hour job on a 5-minute grid needs 12 slots.
// A duration of more slots than an int holds, +Inf included, saturates
// at math.MaxInt (and one of fewer than math.MinInt at math.MinInt), so
// "longer than any trace" stays longer than any trace; NaN gives 0.
func (g Grid) CeilSlots(h Hours) int {
	n := math.Ceil(g.Slots(h))
	switch {
	case math.IsNaN(n):
		return 0
	case n >= float64(math.MaxInt):
		return math.MaxInt
	case n <= float64(math.MinInt):
		return math.MinInt
	}
	return int(n)
}

// HoursOfSlots converts a whole number of slots back into hours.
func (g Grid) HoursOfSlots(n int) Hours { return Hours(float64(n) * float64(g.Slot)) }

// Validate reports an error when the grid is unusable.
func (g Grid) Validate() error {
	if g.Slot <= 0 {
		return fmt.Errorf("timeslot: non-positive slot length %v", float64(g.Slot))
	}
	return nil
}

// Clock advances over a Grid one slot at a time. It is the single
// source of "now" for the cloud simulator so that every component
// (markets, billing, jobs) observes the same slot boundaries.
type Clock struct {
	grid Grid
	now  int
}

// NewClock returns a clock at slot 0 of grid g.
func NewClock(g Grid) *Clock { return &Clock{grid: g} }

// Grid returns the clock's time grid.
func (c *Clock) Grid() Grid { return c.grid }

// Now reports the current slot index.
func (c *Clock) Now() int { return c.now }

// NowTime reports the absolute start time of the current slot.
func (c *Clock) NowTime() time.Time { return c.grid.Time(c.now) }

// ElapsedHours reports the simulated time since slot 0, in hours.
func (c *Clock) ElapsedHours() Hours { return c.grid.HoursOfSlots(c.now) }

// Tick advances the clock by one slot and reports the new slot index.
func (c *Clock) Tick() int {
	c.now++
	return c.now
}

// Reset rewinds the clock to slot 0.
func (c *Clock) Reset() { c.now = 0 }
