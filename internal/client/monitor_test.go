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
	"repro/internal/trace"
)

// monitorSnapshot freezes the live monitor window a Market serves into
// the immutable Empirical it is contractually equivalent to, failing
// the test if the market does not serve the monitor.
func monitorSnapshot(t *testing.T, m core.Market) *dist.Empirical {
	t.Helper()
	win, ok := m.Price.(*dist.WindowedECDF)
	if !ok {
		t.Fatalf("market serves %T, want the live *dist.WindowedECDF", m.Price)
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

// TestMonitorUnderInjector: an armed injector at zero rates must be
// behavior-preserving, so its reports equal the fault-free client's.
func TestMonitorUnderInjector(t *testing.T) {
	clean := newClient(t, 21)
	armed := newClient(t, 21)
	zeroRate, err := chaos.New(chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	armed.Region.SetInjector(zeroRate)

	repClean, err := clean.RunPersistent(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	repArmed, err := armed.RunPersistent(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repClean, repArmed) {
		t.Fatalf("zero-rate injector report differs from the fault-free report:\n%+v\nvs\n%+v", repArmed, repClean)
	}
}

// recordingInjector is a chaos injector that keeps the last history
// window it served.
type recordingInjector struct {
	*chaos.Injector
	served *trace.Trace
}

func (r *recordingInjector) DegradeHistory(tr *trace.Trace, slot int) *trace.Trace {
	r.served = r.Injector.DegradeHistory(tr, slot)
	return r.served
}

// TestMonitorLoadsDegradedWindows: under an injector that drops,
// duplicates, corrupts and stales quotes, every fetch loads the served
// window into the monitor, and the market serves a window that freezes
// to an Empirical deep-equal to NewEmpirical of the filtered history.
// The monitor warms on a clean fetch first, and once the injector is
// disarmed the monitor, which forgot its slot, serves the clean window
// again.
func TestMonitorLoadsDegradedWindows(t *testing.T) {
	c := newClient(t, 17)
	c.HistoryWindow = timeslot.Hours(4) // 48 slots
	if _, err := c.Market(instances.R3XLarge); err != nil {
		t.Fatal(err)
	}
	if err := c.Region.Tick(); err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.New(chaos.Config{Seed: 5, DropRate: 0.05, DupRate: 0.05,
		CorruptRate: 0.05, StaleProb: 0.3, StaleSlots: 6})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingInjector{Injector: inj}
	if err := c.Region.SetInjector(rec); err != nil {
		t.Fatal(err)
	}
	rejected, stale := 0, 0
	for i := 0; i < 120; i++ {
		m, tel, err := c.market(instances.R3XLarge)
		if err != nil {
			t.Fatal(err)
		}
		var valid []float64
		for _, p := range rec.served.Prices {
			if p > 0 {
				valid = append(valid, p)
			}
		}
		want, err := dist.NewEmpirical(valid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(monitorSnapshot(t, m), want) {
			t.Fatalf("slot %d: monitor ECDF differs from NewEmpirical of the served window", c.Region.Now())
		}
		rejected += tel.RejectedQuotes
		if len(rec.served.Prices) < 48 {
			stale++
		}
		if err := c.Region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if rejected == 0 || stale == 0 {
		t.Fatalf("fault mix not exercised: %d rejected quotes, %d stale windows", rejected, stale)
	}
	if err := c.Region.SetInjector(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m, err := c.Market(instances.R3XLarge)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(monitorSnapshot(t, m), legacyMarket(t, c, instances.R3XLarge)) {
			t.Fatalf("slot %d: clean fetch after disarming differs from legacy rebuild", c.Region.Now())
		}
		if err := c.Region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}
