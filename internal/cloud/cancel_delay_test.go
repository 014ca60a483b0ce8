package cloud

import (
	"testing"

	"repro/internal/instances"
	"repro/internal/obs/event"
	"repro/internal/trace"
)

// delayInjector delays every out-bid notice by a fixed number of slots
// and injects nothing else.
type delayInjector struct{ delay int }

func (d delayInjector) APIFault(op Op, slot int) error                        { return nil }
func (d delayInjector) DegradeHistory(tr *trace.Trace, slot int) *trace.Trace { return tr }
func (d delayInjector) LaunchBlocked(t instances.Type, slot int) bool         { return false }
func (d delayInjector) OutbidDelay(slot int) int                              { return d.delay }

// TestCancelRacesDelayedOutbid: the user cancels a request whose
// delayed out-bid notice is still in flight. The cancel must win
// cleanly — one user termination, the stale notice discarded, no
// second termination when it would have landed, and no billing after
// the cancel slot.
func TestCancelRacesDelayedOutbid(t *testing.T) {
	// Price 0.03 at slots 0-1 (launch), 0.05 from slot 2 (out-bid),
	// against a 0.04 bid. The 3-slot notice delay would land at slot 5.
	r := region(t, []float64{0.03, 0.03, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05})
	r.SetInjector(delayInjector{delay: 3})
	rec := event.NewRecorder()
	r.SetTrace(rec)
	reqs, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, Persistent, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := reqs[0]
	if err := r.Tick(); err != nil { // slot 1: launches
		t.Fatal(err)
	}
	if err := r.Tick(); err != nil { // slot 2: out-bid, notice delayed to slot 5
		t.Fatal(err)
	}
	inst, err := r.Instance(req.InstanceID)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Running {
		t.Fatal("delayed notice should keep the instance running")
	}
	if err := r.CancelSpotRequest(req.ID); err != nil { // slot 2: cancel races the notice
		t.Fatal(err)
	}
	if req.State != Cancelled {
		t.Fatalf("request state %v, want cancelled", req.State)
	}
	if inst.Running || inst.ProviderTerminated {
		t.Errorf("running=%v providerTerminated=%v, want a user termination", inst.Running, inst.ProviderTerminated)
	}
	if inst.TerminatedSlot != 2 {
		t.Errorf("terminated at slot %d, want 2", inst.TerminatedSlot)
	}
	costAtCancel := r.TotalCost()

	// Tick through the slot the stale notice would have landed on.
	for i := 0; i < 4; i++ {
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if req.State != Cancelled {
		t.Errorf("stale notice overrode the cancel: state %v", req.State)
	}
	if n := len(instancesOf(r, req)); n != 1 || req.Interruptions != 0 {
		t.Errorf("%d instances, %d interruptions; want one instance and no out-bid", n, req.Interruptions)
	}
	if delayed, outbids := recorded(rec, event.OutBidDelayed, req.ID), recorded(rec, event.OutBid, req.ID); delayed != 1 || outbids != 0 {
		t.Errorf("recorded %d delayed notices and %d out-bids, want 1 and 0", delayed, outbids)
	}
	if got := r.TotalCost(); got != costAtCancel {
		t.Errorf("billing continued after cancel: %v -> %v", costAtCancel, got)
	}
}

// TestDelayedOutbidLandsWithoutCancel: the control — left alone, the
// delayed notice terminates the instance at its due slot, billing the
// interim slots, and exactly one provider termination is recorded.
func TestDelayedOutbidLandsWithoutCancel(t *testing.T) {
	r := region(t, []float64{0.03, 0.03, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05})
	r.SetInjector(delayInjector{delay: 3})
	rec := event.NewRecorder()
	r.SetTrace(rec)
	reqs, err := r.RequestSpotInstances(instances.R3XLarge, 0.04, Persistent, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := reqs[0]
	for i := 0; i < 6; i++ { // through slot 6: notice due at slot 5
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := r.Instance(req.InstanceID)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Running || !inst.ProviderTerminated {
		t.Fatalf("running=%v providerTerminated=%v, want provider termination", inst.Running, inst.ProviderTerminated)
	}
	if inst.TerminatedSlot != 5 {
		t.Errorf("terminated at slot %d, want 5 (out-bid at 2 + 3-slot delay)", inst.TerminatedSlot)
	}
	if n := len(instancesOf(r, req)); n != 1 || req.Interruptions != 1 {
		t.Errorf("%d instances, %d interruptions; want one instance, out-bid once", n, req.Interruptions)
	}
	if outbids := recorded(rec, event.OutBid, req.ID); outbids != 1 {
		t.Errorf("recorded %d out-bids, want exactly 1", outbids)
	}
}

// instancesOf returns the instances req launched, in launch order.
func instancesOf(r *Region, req *SpotRequest) []*Instance {
	var out []*Instance
	for _, inst := range r.Instances() {
		if inst.RequestID == req.ID {
			out = append(out, inst)
		}
	}
	return out
}

// recorded counts rec's events of kind k about request id: a delayed
// notice names the request as its subject, an out-bid as its cause.
func recorded(rec *event.Recorder, k event.Kind, id string) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == k && (ev.Subject == id || ev.Cause == id) {
			n++
		}
	}
	return n
}
