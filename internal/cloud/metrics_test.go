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

// blockAt delays out-bid notices like delayInjector and also refuses
// every launch at one slot.
type blockAt struct {
	delayInjector
	slot int
}

func (b blockAt) LaunchBlocked(t instances.Type, slot int) bool { return slot == b.slot }

// TestSlotGaugesMatchRecords: after every Tick, cloud.queue.open and
// cloud.instances.running equal a count over Requests() and
// Instances(), through a blocked launch, a cancel, a user termination,
// an on-demand launch, and delayed out-bids, one of which lands on a
// slot where its request relaunches at once.
func TestSlotGaugesMatchRecords(t *testing.T) {
	prices := []float64{0.03, 0.03, 0.03, 0.05, 0.05, 0.05, 0.03, 0.03, 0.05, 0.03, 0.03, 0.03}
	r, err := NewRegion(flatTrace(t, prices))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInjector(blockAt{delayInjector{delay: 2}, 1}); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	r.SetMetrics(reg)
	persistent, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, Persistent, 3)
	if err != nil {
		t.Fatal(err)
	}
	oneTime, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, OneTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RequestSpotInstances(instances.R3XLarge, 0.02, Persistent, 1); err != nil {
		t.Fatal(err)
	}
	onDemand, err := r.LaunchOnDemand(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	actions := map[int]func() error{
		2: func() error { return r.CancelSpotRequest(persistent[0].ID) },
		3: func() error { return r.TerminateInstance(persistent[1].InstanceID) },
		4: func() error { _, err := r.LaunchOnDemand(instances.R3XLarge); return err },
		7: func() error { return r.TerminateInstance(onDemand.ID) },
	}
	var maxOpen, maxRunning int
	for r.Tick() == nil {
		open, running := 0, 0
		for _, req := range r.Requests() {
			if req.State == Open {
				open++
			}
		}
		for _, inst := range r.Instances() {
			if inst.Running {
				running++
			}
		}
		gotOpen, gotRunning := reg.Gauge("cloud.queue.open").Value(), reg.Gauge("cloud.instances.running").Value()
		if gotOpen != float64(open) || gotRunning != float64(running) {
			t.Fatalf("slot %d: gauges open %v, running %v; records %d, %d", r.Now(), gotOpen, gotRunning, open, running)
		}
		maxOpen, maxRunning = max(maxOpen, open), max(maxRunning, running)
		if act := actions[r.Now()]; act != nil {
			if err := act(); err != nil {
				t.Fatalf("slot %d: %v", r.Now(), err)
			}
		}
	}
	if oneTime[0].State != Closed || persistent[2].Interruptions != 2 || maxOpen < 5 || maxRunning < 4 {
		t.Fatalf("scenario drifted: one-time %v, %d interruptions, max open %d, max running %d",
			oneTime[0].State, persistent[2].Interruptions, maxOpen, maxRunning)
	}
}
