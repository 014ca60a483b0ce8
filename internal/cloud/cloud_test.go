package cloud

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/instances"
	"repro/internal/obs/event"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// flatTrace builds a trace with the given prices for r3.xlarge.
func flatTrace(t *testing.T, prices []float64) *trace.Trace {
	t.Helper()
	tr, err := trace.New(instances.R3XLarge, timeslot.NewGrid(timeslot.DefaultSlot), prices)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func region(t *testing.T, prices []float64) *Region {
	t.Helper()
	r, err := NewRegion(flatTrace(t, prices))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRegionValidation(t *testing.T) {
	if _, err := NewRegion(); err == nil {
		t.Error("empty region accepted")
	}
	a := flatTrace(t, []float64{1, 2})
	b := flatTrace(t, []float64{1, 2})
	if _, err := NewRegion(a, b); err == nil {
		t.Error("duplicate trace accepted")
	}
	other, err := trace.New(instances.C34XL, timeslot.Grid{Slot: timeslot.Hours(0.5), Start: timeslot.Epoch}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegion(a, other); err == nil {
		t.Error("mismatched grids accepted")
	}
}

func TestSpotLifecycleOneTime(t *testing.T) {
	// Prices: 0.03, 0.03, 0.05, 0.03 — a bid of 0.04 launches at slot
	// 1 and is out-bid at slot 2, closing the one-time request.
	r := region(t, []float64{0.03, 0.03, 0.05, 0.03, 0.03})
	reqs, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, OneTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := reqs[0]
	if req.State != Open {
		t.Fatalf("initial state %v", req.State)
	}
	if err := r.Tick(); err != nil { // slot 1: price 0.03 ≤ bid
		t.Fatal(err)
	}
	if req.State != Active {
		t.Fatalf("state after launch %v", req.State)
	}
	inst, err := r.Instance(req.InstanceID)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Running || !inst.Spot {
		t.Error("instance not running as spot")
	}
	if err := r.Tick(); err != nil { // slot 2: price 0.05 > bid
		t.Fatal(err)
	}
	if req.State != Closed {
		t.Errorf("one-time request after out-bid: %v, want closed", req.State)
	}
	if inst.Running || !inst.ProviderTerminated {
		t.Error("instance should be provider-terminated")
	}
	if req.Interruptions != 1 {
		t.Errorf("interruptions = %d", req.Interruptions)
	}
	// One slot of billing at 0.03.
	want := 0.03 / 12
	if math.Abs(inst.Cost-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", inst.Cost, want)
	}
}

func TestSpotLifecyclePersistent(t *testing.T) {
	// The persistent request relaunches when the price drops again.
	r := region(t, []float64{0.03, 0.03, 0.05, 0.03, 0.03})
	reqs, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, Persistent, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := reqs[0]
	r.Tick() // slot 1: launch
	first := req.InstanceID
	r.Tick() // slot 2: out-bid → back to open
	if req.State != Open {
		t.Fatalf("persistent after out-bid: %v, want open", req.State)
	}
	r.Tick() // slot 3: relaunch
	if req.State != Active {
		t.Fatalf("persistent relaunch: %v", req.State)
	}
	if req.InstanceID == first {
		t.Error("relaunch reused the old instance")
	}
	if req.Interruptions != 1 {
		t.Errorf("interruptions = %d", req.Interruptions)
	}
	// Billing across both instances: slots 1, 3 at 0.03 each.
	if got, want := r.TotalCost(), 2*0.03/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("total cost %v, want %v", got, want)
	}
}

func TestBidBelowPriceNeverLaunches(t *testing.T) {
	r := region(t, []float64{0.05, 0.05, 0.05})
	reqs, _ := r.RequestSpotInstances(instances.R3XLarge, 0.01, Persistent, 1)
	r.Tick()
	r.Tick()
	if reqs[0].State != Open {
		t.Errorf("state = %v, want open forever", reqs[0].State)
	}
	if r.TotalCost() != 0 {
		t.Error("pending bids must not be billed")
	}
}

func TestOnDemandBilling(t *testing.T) {
	r := region(t, []float64{0.03, 0.03, 0.03, 0.03})
	inst, err := r.LaunchOnDemand(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	r.Tick()
	r.Tick()
	od := instances.MustLookup(instances.R3XLarge).OnDemand
	if want := 2 * od / 12; math.Abs(inst.Cost-want) > 1e-12 {
		t.Errorf("on-demand cost %v, want %v", inst.Cost, want)
	}
	if err := r.TerminateInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	r.Tick()
	if want := 2 * od / 12; math.Abs(inst.Cost-want) > 1e-12 {
		t.Error("terminated instance kept billing")
	}
	if err := r.TerminateInstance(inst.ID); err == nil {
		t.Error("double termination accepted")
	}
}

func TestLaunchOnDemandUnknownType(t *testing.T) {
	r := region(t, []float64{0.03})
	if _, err := r.LaunchOnDemand("bogus"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestCancelSpotRequest(t *testing.T) {
	r := region(t, []float64{0.03, 0.03, 0.03})
	reqs, _ := r.RequestSpotInstances(instances.R3XLarge, 0.04, Persistent, 1)
	req := reqs[0]
	r.Tick()
	if err := r.CancelSpotRequest(req.ID); err != nil {
		t.Fatal(err)
	}
	if req.State != Cancelled {
		t.Errorf("state = %v", req.State)
	}
	inst, _ := r.Instance(req.InstanceID)
	if inst.Running {
		t.Error("cancel left the instance running")
	}
	if err := r.CancelSpotRequest(req.ID); err == nil {
		t.Error("double cancel accepted")
	}
	if err := r.CancelSpotRequest("sir-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown request: err = %v, want ErrNotFound", err)
	}
}

func TestLookupsWrapErrNotFound(t *testing.T) {
	r := region(t, []float64{0.03})
	if _, err := r.Request("sir-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Request: err = %v, want ErrNotFound", err)
	}
	if _, err := r.Instance("i-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Instance: err = %v, want ErrNotFound", err)
	}
	if err := r.TerminateInstance("i-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("TerminateInstance: err = %v, want ErrNotFound", err)
	}
}

func TestRequestValidation(t *testing.T) {
	r := region(t, []float64{0.03})
	if _, err := r.RequestSpotInstances("bogus", 0.04, OneTime, 1); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := r.RequestSpotInstances(instances.R3XLarge, 0, OneTime, 1); err == nil {
		t.Error("zero bid accepted")
	}
	if _, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, OneTime, 0); err == nil {
		t.Error("zero count accepted")
	}
}

func TestMultipleRequests(t *testing.T) {
	r := region(t, []float64{0.03, 0.03})
	reqs, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, Persistent, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5 {
		t.Fatalf("count = %d", len(reqs))
	}
	ids := map[string]bool{}
	for _, q := range reqs {
		ids[q.ID] = true
	}
	if len(ids) != 5 {
		t.Error("duplicate request IDs")
	}
	r.Tick()
	for _, q := range reqs {
		if q.State != Active {
			t.Errorf("request %s not active", q.ID)
		}
	}
}

func TestEndOfTrace(t *testing.T) {
	r := region(t, []float64{0.03, 0.03})
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := r.Tick(); !errors.Is(err, ErrEndOfTrace) {
		t.Errorf("want ErrEndOfTrace, got %v", err)
	}
	if r.Horizon() != 2 {
		t.Errorf("Horizon = %d", r.Horizon())
	}
}

func TestSpotPriceAndHistory(t *testing.T) {
	r := region(t, []float64{0.03, 0.04, 0.05})
	p, err := r.SpotPrice(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.03 {
		t.Errorf("price at slot 0 = %v", p)
	}
	r.Tick()
	if p, _ = r.SpotPrice(instances.R3XLarge); p != 0.04 {
		t.Errorf("price at slot 1 = %v", p)
	}
	hist, err := r.PriceHistory(instances.R3XLarge, timeslot.Hours(10))
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 2 || hist.At(1) != 0.04 {
		t.Errorf("history = %v", hist.Prices)
	}
	if _, err := r.SpotPrice("bogus"); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := r.PriceHistory("bogus", 1); err == nil {
		t.Error("unknown type accepted")
	}
}

// TestEventLog: a persistent request's launch, out-bid and relaunch
// show in its request and instance records and, in the same order, in
// an attached flight recorder's BidAccepted and OutBid events.
func TestEventLog(t *testing.T) {
	r := region(t, []float64{0.03, 0.03, 0.05, 0.03})
	rec := event.NewRecorder()
	r.SetTrace(rec)
	reqs, _ := r.RequestSpotInstances(instances.R3XLarge, 0.04, Persistent, 1)
	req := reqs[0]
	r.Tick() // launch
	r.Tick() // outbid
	r.Tick() // relaunch
	var kinds []event.Kind
	for _, ev := range rec.Events() {
		if ev.Cause == req.ID { // launches and out-bids name their request
			kinds = append(kinds, ev.Kind)
		}
	}
	if want := []event.Kind{event.BidAccepted, event.OutBid, event.BidAccepted}; !slices.Equal(kinds, want) {
		t.Fatalf("recorded %v, want %v", kinds, want)
	}
	if req.State != Active || req.Interruptions != 1 {
		t.Errorf("request %v with %d interruptions, want active with 1", req.State, req.Interruptions)
	}
	insts := instancesOf(r, req)
	if len(insts) != 2 {
		t.Fatalf("instances %+v, want two", insts)
	}
	first, second := insts[0], insts[1]
	if first.LaunchedSlot != 1 || first.TerminatedSlot != 2 || !first.ProviderTerminated {
		t.Errorf("first instance %+v, want launched at 1, out-bid at 2", first)
	}
	if second.LaunchedSlot != 3 || !second.Running || req.InstanceID != second.ID {
		t.Errorf("second instance %+v, want the request's running relaunch at 3", second)
	}
}

func TestBillingConservation(t *testing.T) {
	// Total cost equals Σ over running instances of slot price —
	// replayed independently from the trace and run counters.
	prices := []float64{0.03, 0.031, 0.05, 0.03, 0.04, 0.03, 0.03}
	r := region(t, prices)
	r.RequestSpotInstances(instances.R3XLarge, 0.035, Persistent, 2)
	r.LaunchOnDemand(instances.R3XLarge)
	for r.Tick() == nil {
	}
	// Spot: slots with price ≤ 0.035 → 1,3,5,6 at prices .031,.03,.03,.03 ×2 requests.
	spotWant := 2 * (0.031 + 0.03 + 0.03 + 0.03) / 12
	odWant := 6 * 0.35 / 12 // on-demand runs slots 1..6
	if got := r.TotalCost(); math.Abs(got-(spotWant+odWant)) > 1e-9 {
		t.Errorf("total cost %v, want %v", got, spotWant+odWant)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{OneTime.String(), Persistent.String(), Open.String(),
		Active.String(), Closed.String(), Cancelled.String()} {
		if s == "" {
			t.Error("empty stringer")
		}
	}
	if RequestKind(9).String() == "" || RequestState(9).String() == "" {
		t.Error("unknown values need fallback strings")
	}
}
