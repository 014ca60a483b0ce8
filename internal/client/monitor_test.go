package client

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
)

// monitorSnapshot freezes the live monitor window a clean-path Market
// serves into the immutable Empirical it is contractually equivalent
// to, failing the test if the fast path did not engage.
func monitorSnapshot(t *testing.T, m core.Market) *dist.Empirical {
	t.Helper()
	win, ok := m.Price.(*dist.WindowedECDF)
	if !ok {
		t.Fatalf("clean-path market serves %T, want the live *dist.WindowedECDF", m.Price)
	}
	snap, err := win.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// legacyMarket rebuilds the F_π estimate the pre-monitor code path
// produced: a fresh NewEmpirical over the raw PriceHistory window.
func legacyMarket(t *testing.T, c *Client, typ instances.Type) *dist.Empirical {
	t.Helper()
	window := c.HistoryWindow
	if window == 0 {
		window = DefaultHistoryWindow
	}
	hist, err := c.Region.PriceHistory(typ, window)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dist.NewEmpirical(hist.Prices, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMonitorMatchesLegacyRebuild drives the region slot by slot —
// through warm-up, window saturation, and eviction — and checks the
// live window the incremental monitor serves freezes to an Empirical
// deep-equal to the legacy full rebuild at every tick. This is the
// client half of the element-identical acceptance contract.
func TestMonitorMatchesLegacyRebuild(t *testing.T) {
	c := newClient(t, 9)
	// Shrink the window so saturation and eviction are reached quickly.
	c.HistoryWindow = timeslot.Hours(4) // 48 slots
	for i := 0; i < 120; i++ {
		m, err := c.Market(instances.R3XLarge)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(monitorSnapshot(t, m), legacyMarket(t, c, instances.R3XLarge)) {
			t.Fatalf("slot %d: monitor ECDF differs from legacy rebuild", c.Region.Now())
		}
		if err := c.Region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMonitorCatchUpPaths exercises the non-steady-state transitions:
// a gap a Slide merges, a gap of one whole window, which Slide takes as
// a Fill, a gap past the window, which refills it, a window-size
// change, and an infinite window — each must still match the legacy
// rebuild exactly.
func TestMonitorCatchUpPaths(t *testing.T) {
	c := newClient(t, 13)
	c.HistoryWindow = timeslot.Hours(48) // 576 slots
	check := func() {
		t.Helper()
		m, err := c.Market(instances.R3XLarge)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(monitorSnapshot(t, m), legacyMarket(t, c, instances.R3XLarge)) {
			t.Fatalf("slot %d: monitor ECDF differs from legacy rebuild", c.Region.Now())
		}
	}
	check() // cold start: bulk fill
	for i := 0; i < 128; i++ {
		if err := c.Region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	check() // a gap inside the window: one merge
	for i := 0; i < 576; i++ {
		if err := c.Region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	check() // a gap of exactly the window: one Slide that fills it
	for i := 0; i < 576+10; i++ {
		if err := c.Region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	check() // a gap past the window: refilled
	c.HistoryWindow = timeslot.Hours(24)
	check() // window change: monitor rebuilt at the new capacity
	c.HistoryWindow = timeslot.Hours(math.Inf(1))
	check() // an infinite window: every slot so far
	if err := c.Region.Tick(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestMonitorBypassedUnderInjector: any armed injector — even with all
// rates zero, which must be behavior-preserving — keeps the legacy
// path, so the run surface under chaos is exactly the pre-monitor code.
// The reports must still agree, because the zero-rate contract and the
// monitor's equivalence contract both pin the same output.
func TestMonitorBypassedUnderInjector(t *testing.T) {
	fast := newClient(t, 21)
	legacy := newClient(t, 21)
	zeroRate, err := chaos.New(chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	legacy.Region.SetInjector(zeroRate)

	repFast, err := fast.RunPersistent(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	repLegacy, err := legacy.RunPersistent(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repFast, repLegacy) {
		t.Fatalf("fast-path report differs from legacy-path report:\n%+v\nvs\n%+v", repFast, repLegacy)
	}
	if len(fast.monitors) == 0 {
		t.Fatal("fast path did not engage the incremental monitor")
	}
	if len(legacy.monitors) != 0 {
		t.Fatal("legacy path engaged the incremental monitor under an armed injector")
	}
}
