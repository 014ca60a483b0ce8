package cloud

import (
	"math"
	"testing"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// TestMeteredChargeSumIsDeterministic replays one metered region 200
// times. The region holds one spot and one on-demand instance of each
// of three types, so six instances with different per-slot charges
// share every slot. The float Sum of cloud.slot_charge_usd depends on
// the order the region bills them in, and it must come out
// bit-identical on every replay.
func TestMeteredChargeSumIsDeterministic(t *testing.T) {
	types := []instances.Type{instances.R3XLarge, instances.R32XL, instances.C34XL}
	run := func() uint64 {
		traces := make([]*trace.Trace, len(types))
		for i, typ := range types {
			prices := make([]float64, 48)
			for s := range prices {
				prices[s] = 0.01*float64(i+1) + 0.0013*float64(s%7)
			}
			tr, err := trace.New(typ, timeslot.NewGrid(timeslot.DefaultSlot), prices)
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
		}
		r, err := NewRegion(traces...)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		r.SetMetrics(reg)
		for _, typ := range types {
			if _, err := r.RequestSpotInstances(typ, 1, Persistent, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := r.LaunchOnDemand(typ); err != nil {
				t.Fatal(err)
			}
		}
		for r.Tick() == nil {
		}
		h := reg.Histogram("cloud.slot_charge_usd", obs.PriceBuckets)
		if h.Count() < int64(6*(len(traces[0].Prices)-2)) {
			t.Fatalf("only %d charges metered", h.Count())
		}
		return math.Float64bits(h.Sum())
	}
	want := run()
	for i := 1; i < 200; i++ {
		if got := run(); got != want {
			t.Fatalf("replay %d: charge sum %v, first replay %v", i, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}
