package client

import (
	"repro/internal/cloud"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
)

// priceMonitor is the price-monitor state for one instance type: a
// windowed ECDF that every successful history fetch loads. A clean
// fetch (no fault injector armed, no quote rejected) advances it by
// the slots since the last fetch — one per tick in the run loops —
// instead of a full O(n log n) rebuild of the two-month window; any
// other fetch bulk-loads the served window.
//
// The monitor is a pure cache. After a clean fetch its window contents
// are, by invariant, the trailing min(ingested, capacity) slots of the
// region's backing trace up to (but excluding) nextSlot; after any
// other fetch they are the served (filtered) window and the monitor
// forgets its slot. Either way every Dist query on the window is
// element-identical to dist.NewEmpirical of the same window, so the
// monitor changes no observable behavior — only the work done to get
// there. DegradeHistory never lengthens a window, so every response
// fits the capacity.
//
// The window is served live (no per-fetch snapshot copy): it mutates
// only inside monitorECDF, i.e. on the next market fetch of the same
// type, so a Market view stays frozen for as long as the bid
// calculator that received it runs — the aliasing contract documented
// on Client.Market.
type priceMonitor struct {
	region   *cloud.Region  // backing region; a swap invalidates the cache
	window   timeslot.Hours // the HistoryWindow the capacity was sized for
	nextSlot int            // first backing-trace slot not yet ingested; -1 when forgotten
	win      *dist.WindowedECDF
}

// monitorECDF loads the fetched window into the type's monitor and
// returns it. prices is the served window, newest slot last. clean
// reports that it is the region's undegraded backing window, so the
// monitor may ingest only the slots that are new since the previous
// clean fetch — no snapshot copy, no allocation in steady state.
func (c *Client) monitorECDF(t instances.Type, window timeslot.Hours, prices []float64, clean bool) (*priceMonitor, error) {
	now := c.Region.Now()
	start := now + 1 - len(prices) // backing-trace slot of prices[0] when clean

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
	// A degraded or filtered window, a cold start, a forgotten slot, a
	// clock regression, or a gap the history no longer covers bulk-loads
	// the whole window. Otherwise one Slide ingests only the slots since
	// the last fetch: it leaves the window as per-slot Pushes would, and
	// takes one slot (a tick of the run loops) as a Push and a whole
	// window as a Fill.
	var err error
	if !clean || mon.win.N() == 0 || mon.nextSlot > now+1 || mon.nextSlot < start {
		err = mon.win.Fill(prices)
	} else {
		err = mon.win.Slide(prices[mon.nextSlot-start:])
	}
	if err != nil {
		return nil, err
	}
	mon.nextSlot = -1
	if clean {
		mon.nextSlot = now + 1
	}
	return mon, nil
}
