// Package cloud simulates the 2014-era EC2 spot market the paper ran
// its experiments on: per-instance-type spot markets driven by price
// traces, one-time and persistent spot requests with out-bid
// termination and automatic relaunch, on-demand instances, per-slot
// billing, and a DescribeSpotPriceHistory-style query — everything
// the bidding client (Fig. 1) observes.
//
// Time advances in discrete pricing slots (Tick). Within a slot:
//
//  1. the market reveals the slot's spot price π(t) from its trace;
//  2. running spot instances whose bid is below π(t) are terminated
//     by the provider — persistent requests revert to open (pending),
//     one-time requests close (Fig. 2's state machine);
//  3. open requests whose bid is at or above π(t) launch instances;
//  4. every instance running through the slot is charged: spot
//     instances at π(t), on-demand instances at π̄.
//
// Idle (pending) time costs nothing, matching the paper's cost
// accounting. Amazon's real billing rounded to instance-hours and
// refunded provider-terminated partial hours; per-slot billing is the
// continuous-limit simplification documented in DESIGN.md.
package cloud

import (
	"errors"
	"fmt"

	"repro/internal/instances"
	"repro/internal/obs/event"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// RequestKind distinguishes the two spot request types (§3.2).
type RequestKind int

const (
	// OneTime requests exit the system when out-bid: the instance is
	// gone and will not come back.
	OneTime RequestKind = iota
	// Persistent requests are resubmitted every slot until fulfilled
	// again or cancelled by the user.
	Persistent
)

// String implements fmt.Stringer.
func (k RequestKind) String() string {
	switch k {
	case OneTime:
		return "one-time"
	case Persistent:
		return "persistent"
	default:
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
}

// RequestState tracks a spot request through Fig. 2's states.
type RequestState int

const (
	// Open means the request is pending: submitted but not fulfilled
	// at the current spot price.
	Open RequestState = iota
	// Active means the request has a running instance.
	Active
	// Closed means the request left the system: out-bid (one-time)
	// or fulfilled-and-terminated by the user.
	Closed
	// Cancelled means the user cancelled the request.
	Cancelled
)

// String implements fmt.Stringer.
func (s RequestState) String() string {
	switch s {
	case Open:
		return "open"
	case Active:
		return "active"
	case Closed:
		return "closed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("RequestState(%d)", int(s))
	}
}

// SpotRequest is a bid for one spot instance.
type SpotRequest struct {
	// ID is the request identifier, e.g. "sir-000001".
	ID string
	// Type is the instance type requested.
	Type instances.Type
	// Bid is the bid price in USD per instance-hour.
	Bid float64
	// Kind is one-time or persistent.
	Kind RequestKind
	// State is the current lifecycle state.
	State RequestState
	// InstanceID is the running instance when State == Active, and
	// the most recent instance otherwise ("" if never fulfilled).
	InstanceID string
	// SubmittedSlot is the slot index at submission.
	SubmittedSlot int
	// Interruptions counts provider terminations of this request's
	// instances.
	Interruptions int
}

// Instance is a virtual machine, spot or on-demand.
type Instance struct {
	// ID is the instance identifier, e.g. "i-000001".
	ID string
	// Type is the instance type.
	Type instances.Type
	// Spot reports whether this is a spot instance (false: on-demand).
	Spot bool
	// RequestID links a spot instance to its request.
	RequestID string
	// LaunchedSlot is the slot the instance started running.
	LaunchedSlot int
	// TerminatedSlot is the slot the instance stopped, or -1 while
	// running.
	TerminatedSlot int
	// RunSlots counts slots the instance ran (and was charged for).
	RunSlots int
	// Cost is the accumulated charge in USD.
	Cost float64
	// Running reports whether the instance is currently running.
	Running bool
	// ProviderTerminated reports whether the provider (out-bid)
	// rather than the user ended the instance.
	ProviderTerminated bool

	// hourly-billing state (see billing.go): slots into the current
	// billing hour and the rate locked at its start.
	hourSlots int
	hourPrice float64
}

// ErrEndOfTrace reports that the region's price traces are exhausted:
// the simulation horizon is over.
var ErrEndOfTrace = errors.New("cloud: price trace exhausted")

// ErrNotFound reports a lookup of a request or instance ID the region
// has never issued. Region.Request and Region.Instance wrap it, so
// cross-region code (the fleet controller migrating jobs between
// regions) branches with errors.Is instead of string matching.
var ErrNotFound = errors.New("cloud: not found")

// Region is the simulated EC2 region.
type Region struct {
	id       string
	clock    *timeslot.Clock
	traces   map[instances.Type]*trace.Trace
	requests map[string]*SpotRequest
	insts    map[string]*Instance
	order    []string    // request IDs in submission order, for determinism
	instOrd  []*Instance // every instance in creation order, for determinism
	nextReq  int
	nextInst int
	horizon  int // min trace length

	billing      BillingMode
	slotsPerHour int // set when billing == Hourly

	inj FaultInjector // nil: fault-free (see fault.go)
	// pendingTerm maps request IDs whose out-bid notice is delayed to
	// the slot the termination lands.
	pendingTerm map[string]int

	counts Counts         // kept with or without a registry (see metrics.go)
	met    *regionMetrics // nil: uninstrumented (see metrics.go)
	evt    *regionTrace   // nil: no flight recorder (see trace.go)
}

// NewRegion builds a region serving the given price traces (one per
// instance type, all sharing one time grid).
func NewRegion(traces ...*trace.Trace) (*Region, error) {
	if len(traces) == 0 {
		return nil, errors.New("cloud: region needs at least one price trace")
	}
	grid := traces[0].Grid
	r := &Region{
		clock:       timeslot.NewClock(grid),
		traces:      make(map[instances.Type]*trace.Trace, len(traces)),
		requests:    make(map[string]*SpotRequest),
		insts:       make(map[string]*Instance),
		horizon:     traces[0].Len(),
		pendingTerm: make(map[string]int),
	}
	for _, tr := range traces {
		if tr.Grid != grid {
			return nil, fmt.Errorf("cloud: trace for %s uses a different time grid", tr.Type)
		}
		if _, dup := r.traces[tr.Type]; dup {
			return nil, fmt.Errorf("cloud: duplicate trace for %s", tr.Type)
		}
		r.traces[tr.Type] = tr
		if tr.Len() < r.horizon {
			r.horizon = tr.Len()
		}
	}
	return r, nil
}

// SetID names the region (e.g. "us-east-1a"). Regions are anonymous by
// default; the fleet controller names its members so failover schedules
// and metrics can refer to them.
func (r *Region) SetID(id string) { r.id = id }

// ID reports the region's name ("" when never set).
func (r *Region) ID() string { return r.id }

// Now reports the current slot index.
func (r *Region) Now() int { return r.clock.Now() }

// Grid returns the region's time grid.
func (r *Region) Grid() timeslot.Grid { return r.clock.Grid() }

// Horizon reports the number of slots the region can simulate.
func (r *Region) Horizon() int { return r.horizon }

// SpotPrice reports the spot price in effect during the current slot.
func (r *Region) SpotPrice(t instances.Type) (float64, error) {
	tr, ok := r.traces[t]
	if !ok {
		return 0, fmt.Errorf("cloud: no spot market for %s", t)
	}
	return tr.At(r.clock.Now()), nil
}

// PriceHistory returns the last h hours of spot prices up to and
// including the current slot — the simulator's
// DescribeSpotPriceHistory.
//
// The returned trace is a zero-copy view: its Prices slice aliases the
// region's backing trace (one window header is allocated, no price
// data is copied). Callers must treat it as immutable — the client's
// price monitor only reads it, and the chaos injector follows
// copy-on-degrade: DegradeHistory clones the window before mutating,
// so a degraded response is always a private copy and the backing
// trace is never perturbed.
func (r *Region) PriceHistory(t instances.Type, h timeslot.Hours) (*trace.Trace, error) {
	tr, ok := r.traces[t]
	if !ok {
		return nil, fmt.Errorf("cloud: no spot market for %s", t)
	}
	if err := r.apiFault(OpPriceHistory); err != nil {
		return nil, err
	}
	// Single window [to−n, to) over the backing trace, equivalent to
	// the former Window(0, now+1) + LastHours(h) chain but with one
	// header allocation instead of two.
	to := r.clock.Now() + 1
	from := to - tr.Grid.CeilSlots(h)
	if from < 0 {
		from = 0
	}
	out, err := tr.Window(from, to)
	if err != nil {
		return nil, err
	}
	if r.inj != nil {
		out = r.inj.DegradeHistory(out, r.clock.Now())
	}
	return out, nil
}

// Request returns a spot request by ID. Unknown IDs report an error
// wrapping ErrNotFound.
func (r *Region) Request(id string) (*SpotRequest, error) {
	req, ok := r.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown spot request %q", ErrNotFound, id)
	}
	return req, nil
}

// Instance returns an instance by ID. Unknown IDs report an error
// wrapping ErrNotFound.
func (r *Region) Instance(id string) (*Instance, error) {
	inst, ok := r.insts[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown instance %q", ErrNotFound, id)
	}
	return inst, nil
}

// TotalCost sums the charges of every instance ever billed. The sum
// runs in instance-creation order so the float accumulation — and
// therefore a replayed run's cost — is bit-identical across runs.
func (r *Region) TotalCost() float64 {
	var sum float64
	for _, inst := range r.instOrd {
		sum += inst.Cost
	}
	return sum
}

// RequestCost sums the bills of every instance req launched, in launch
// order, so the sum is bit-identical across replays.
func (r *Region) RequestCost(req *SpotRequest) float64 {
	var sum float64
	for _, inst := range r.instOrd {
		if inst.RequestID == req.ID {
			sum += inst.Cost
		}
	}
	return sum
}

// Instances returns every instance the region ever launched, in
// creation order. The slice is fresh but the pointers are the live
// records — callers must not modify them. The invariant checkers
// audit billing and occupancy through this view.
func (r *Region) Instances() []*Instance {
	out := make([]*Instance, len(r.instOrd))
	copy(out, r.instOrd)
	return out
}

// Requests returns every spot request ever submitted, in submission
// order, under the same sharing contract as Instances.
func (r *Region) Requests() []*SpotRequest {
	out := make([]*SpotRequest, len(r.order))
	for i, id := range r.order {
		out[i] = r.requests[id]
	}
	return out
}

// TracePrice reports the spot price the market charged at an arbitrary
// slot, read straight from the backing trace — no injector, no API
// fault, no degradation. Auditors use it to recompute bills after the
// fact; clients must use SpotPrice/PriceHistory, which see the region
// as the paper's client did.
func (r *Region) TracePrice(t instances.Type, slot int) (float64, error) {
	tr, ok := r.traces[t]
	if !ok {
		return 0, fmt.Errorf("cloud: no spot market for %s", t)
	}
	if slot < 0 || slot >= tr.Len() {
		return 0, fmt.Errorf("cloud: slot %d outside trace horizon %d", slot, tr.Len())
	}
	return tr.At(slot), nil
}

// RequestSpotInstances submits count spot requests at the given bid
// (mirroring the EC2 API of the same name). The requests become
// eligible at the *next* Tick: Amazon evaluated new bids at the next
// price update.
func (r *Region) RequestSpotInstances(t instances.Type, bid float64, kind RequestKind, count int) ([]*SpotRequest, error) {
	if _, ok := r.traces[t]; !ok {
		return nil, fmt.Errorf("cloud: no spot market for %s", t)
	}
	if !(bid > 0) {
		return nil, fmt.Errorf("cloud: non-positive bid %v", bid)
	}
	if count < 1 {
		return nil, fmt.Errorf("cloud: request count %d must be at least 1", count)
	}
	if err := r.apiFault(OpSubmit); err != nil {
		return nil, err
	}
	out := make([]*SpotRequest, count)
	for i := range out {
		r.nextReq++
		req := &SpotRequest{
			ID:            fmt.Sprintf("sir-%06d", r.nextReq),
			Type:          t,
			Bid:           bid,
			Kind:          kind,
			State:         Open,
			SubmittedSlot: r.clock.Now(),
		}
		r.requests[req.ID] = req
		r.order = append(r.order, req.ID)
		out[i] = req
	}
	if r.met != nil {
		r.met.submitted.Add(int64(count))
	}
	if r.evt != nil {
		for _, req := range out {
			r.evt.rec.Emit(&event.Event{Kind: event.BidSubmitted, Slot: r.clock.Now(),
				Region: r.id, Subject: req.ID, Value: bid})
		}
	}
	return out, nil
}

// CancelSpotRequest cancels an open or active request; an active
// request's instance is terminated (user-initiated).
func (r *Region) CancelSpotRequest(id string) error {
	req, err := r.Request(id)
	if err != nil {
		return err
	}
	switch req.State {
	case Closed, Cancelled:
		return fmt.Errorf("cloud: request %s already %s", id, req.State)
	}
	if err := r.apiFault(OpCancel); err != nil {
		return err
	}
	if req.State == Active {
		inst, err := r.Instance(req.InstanceID)
		if err != nil {
			return err
		}
		if inst.Running {
			r.terminate(inst)
		}
		// terminate closed the request; override: the user cancelled.
	}
	delete(r.pendingTerm, id)
	req.State = Cancelled
	if r.met != nil {
		r.met.cancelled.Inc()
	}
	return nil
}

// LaunchOnDemand starts an on-demand instance immediately. It runs —
// and is billed π̄ per hour — every slot until terminated.
func (r *Region) LaunchOnDemand(t instances.Type) (*Instance, error) {
	if _, err := instances.Lookup(t); err != nil {
		return nil, err
	}
	r.nextInst++
	inst := &Instance{
		ID:             fmt.Sprintf("i-%06d", r.nextInst),
		Type:           t,
		LaunchedSlot:   r.clock.Now(),
		TerminatedSlot: -1,
		Running:        true,
	}
	r.insts[inst.ID] = inst
	r.instOrd = append(r.instOrd, inst)
	if r.met != nil {
		r.met.odLaunches.Inc()
	}
	return inst, nil
}

// TerminateInstance stops an instance (user-initiated). A persistent
// request whose instance is terminated this way closes too — the user
// is done with it.
func (r *Region) TerminateInstance(id string) error {
	inst, err := r.Instance(id)
	if err != nil {
		return err
	}
	if !inst.Running {
		return fmt.Errorf("cloud: instance %s already terminated", id)
	}
	if err := r.apiFault(OpTerminate); err != nil {
		return err
	}
	r.terminate(inst)
	return nil
}

// terminate performs the user-initiated termination of a running
// instance — the fault-checked entry points above delegate here.
func (r *Region) terminate(inst *Instance) {
	inst.Running = false
	inst.TerminatedSlot = r.clock.Now()
	if r.met != nil {
		r.met.userTerm.Inc()
		r.observeTermination(inst, r.clock.Now())
	}
	r.settlePartialHour(inst, false)
	if inst.RequestID != "" {
		delete(r.pendingTerm, inst.RequestID)
		if req, ok := r.requests[inst.RequestID]; ok && req.State == Active {
			req.State = Closed
		}
	}
}

// Tick advances the region one slot and settles the market: out-bid
// terminations, pending-request launches, and billing. It returns
// ErrEndOfTrace when the price traces are exhausted.
func (r *Region) Tick() error {
	if r.clock.Now()+1 >= r.horizon {
		return ErrEndOfTrace
	}
	slot := r.clock.Tick()
	if r.evt != nil {
		r.tracePrices(slot)
	}

	// 1. Out-bid terminations at the new prices.
	for _, id := range r.order {
		req := r.requests[id]
		if req.State != Active {
			continue
		}
		price := r.traces[req.Type].At(slot)
		if due, pending := r.pendingTerm[id]; pending {
			// A delayed out-bid notice is in flight: the instance
			// keeps running — and billing — until it lands, wherever
			// the price moves meanwhile (EC2's two-minute warning).
			if slot < due {
				continue
			}
			delete(r.pendingTerm, id)
			r.outbid(req, slot, price)
			continue
		}
		if req.Bid >= price {
			continue
		}
		if r.inj != nil {
			if d := r.inj.OutbidDelay(slot); d > 0 {
				r.pendingTerm[id] = slot + d
				if r.met != nil {
					r.met.outbidDelayed.Inc()
				}
				if r.evt != nil {
					r.evt.rec.Emit(&event.Event{Kind: event.OutBidDelayed, Slot: slot,
						Region: r.id, Subject: id, Cause: "delayed-notice", Value: float64(d)})
				}
				continue
			}
		}
		r.outbid(req, slot, price)
	}

	// 2. Launch open requests that now clear the price, counting the
	// requests left open.
	open := 0
	for _, id := range r.order {
		req := r.requests[id]
		if req.State != Open {
			continue
		}
		price := r.traces[req.Type].At(slot)
		if req.Bid < price {
			open++
			continue
		}
		if r.inj != nil && r.inj.LaunchBlocked(req.Type, slot) {
			open++
			r.counts.Blocked++
			if r.met != nil {
				r.met.blocked.Inc()
			}
			if r.evt != nil {
				r.evt.rec.Emit(&event.Event{Kind: event.LaunchBlocked, Slot: slot,
					Region: r.id, Subject: id, Cause: "capacity-outage"})
			}
			continue // capacity outage: stays pending above the price
		}
		r.nextInst++
		inst := &Instance{
			ID:             fmt.Sprintf("i-%06d", r.nextInst),
			Type:           req.Type,
			Spot:           true,
			RequestID:      id,
			LaunchedSlot:   slot,
			TerminatedSlot: -1,
			Running:        true,
		}
		r.insts[inst.ID] = inst
		r.instOrd = append(r.instOrd, inst)
		req.State = Active
		req.InstanceID = inst.ID
		r.counts.Accepted++
		if r.met != nil {
			r.met.accepted.Inc()
		}
		if r.evt != nil {
			r.evt.rec.Emit(&event.Event{Kind: event.BidAccepted, Slot: slot,
				Region: r.id, Subject: inst.ID, Cause: id, Value: price})
		}
	}

	// 3. Billing: every instance running through this slot pays,
	// per-slot or into its open billing hour (billing.go), in creation
	// order, so the metered charges sum in the same order every run.
	running := 0
	for _, inst := range r.instOrd {
		if !inst.Running {
			continue
		}
		running++
		inst.RunSlots++
		before := inst.Cost
		if inst.Spot {
			r.chargeSlot(inst, r.traces[inst.Type].At(slot))
		} else {
			r.chargeSlot(inst, instances.MustLookup(inst.Type).OnDemand)
		}
		if r.met != nil {
			if d := inst.Cost - before; d > 0 {
				r.met.charge.Observe(d)
			}
		}
	}
	r.observeSlot(slot, open, running)
	return nil
}

// outbid executes a provider termination of req's instance at slot:
// the bid fell below price (possibly some slots ago, when the notice
// was delayed).
func (r *Region) outbid(req *SpotRequest, slot int, price float64) {
	inst := r.insts[req.InstanceID]
	inst.Running = false
	inst.TerminatedSlot = slot
	inst.ProviderTerminated = true
	r.counts.Outbid++
	if r.met != nil {
		r.met.outbid.Inc()
		r.observeTermination(inst, slot)
	}
	if r.evt != nil {
		r.evt.rec.Emit(&event.Event{Kind: event.OutBid, Slot: slot,
			Region: r.id, Subject: inst.ID, Cause: req.ID, Value: price})
	}
	r.settlePartialHour(inst, true)
	req.Interruptions++
	switch req.Kind {
	case Persistent:
		req.State = Open // back to pending (Fig. 2)
	case OneTime:
		req.State = Closed // exits the system
	}
}
