package client

import (
	"repro/internal/cloud"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// priceMonitor is the incremental price-monitor state for one instance
// type: a windowed ECDF tracking exactly the slots the legacy path
// would hand to dist.NewEmpirical, advanced by the slots since the last
// fetch (one per tick in the run loops) instead of a full O(n log n)
// rebuild of the two-month window.
//
// The monitor is a pure cache. Its window contents are, by invariant,
// the trailing min(ingested, capacity) slots of the region's backing
// trace up to (but excluding) nextSlot; every Dist query on the window
// is element-identical to the legacy dist.NewEmpirical rebuild of the
// same slots, so the fast path changes no observable behavior — only
// the work done to get there.
//
// The window is served live (no per-fetch snapshot copy): it mutates
// only inside monitorECDF, i.e. on the next clean market fetch of the
// same type, so a Market view stays frozen for as long as the bid
// calculator that received it runs — the aliasing contract documented
// on Client.Market.
type priceMonitor struct {
	region   *cloud.Region  // backing region; a swap invalidates the cache
	window   timeslot.Hours // the HistoryWindow the capacity was sized for
	nextSlot int            // first backing-trace slot not yet ingested
	win      *dist.WindowedECDF
}

// monitorECDF serves the clean-path F_π estimate from the incremental
// monitor. Callers guarantee hist is the undegraded zero-copy window
// (no fault injector armed) and contains no rejectable quotes, so the
// legacy equivalent would be dist.NewEmpirical(hist.Prices, 0); the
// returned monitor's live window answers every Dist query
// element-identically after ingesting only the slots that are new
// since the previous fetch — no snapshot copy, no allocation in
// steady state.
func (c *Client) monitorECDF(t instances.Type, window timeslot.Hours, hist *trace.Trace) (*priceMonitor, error) {
	now := c.Region.Now()
	start := now + 1 - hist.Len() // backing-trace slot of hist.Prices[0]

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.monitors == nil { // zero-value Client, constructed without New
		c.monitors = make(map[instances.Type]*priceMonitor)
	}
	mon := c.monitors[t]
	if mon == nil || mon.region != c.Region || mon.window != window {
		capacity := c.Region.Grid().CeilSlots(window)
		if h := c.Region.Horizon(); capacity > h {
			capacity = h // the trace bounds the reachable window
		}
		if capacity < 1 {
			capacity = 1
		}
		win, err := dist.NewWindowedECDF(capacity, 0)
		if err != nil {
			return nil, err
		}
		mon = &priceMonitor{region: c.Region, window: window, win: win}
		c.monitors[t] = mon
	}
	// A cold start, a clock regression, or a gap the history no longer
	// covers bulk-loads the whole window. Otherwise one Slide ingests
	// only the slots since the last fetch: it leaves the window as
	// per-slot Pushes would, and takes one slot (a tick of the run
	// loops) as a Push and a whole window as a Fill.
	var err error
	if mon.win.N() == 0 || mon.nextSlot > now+1 || mon.nextSlot < start {
		err = mon.win.Fill(hist.Prices)
	} else {
		err = mon.win.Slide(hist.Prices[mon.nextSlot-start:])
	}
	if err != nil {
		return nil, err
	}
	mon.nextSlot = now + 1
	return mon, nil
}
