package cloud

import (
	"fmt"

	"repro/internal/instances"
	"repro/internal/trace"
)

// Op identifies a region API operation for fault injection — the calls
// that failed transiently against real EC2.
type Op int

const (
	// OpPriceHistory is the DescribeSpotPriceHistory-style query.
	OpPriceHistory Op = iota
	// OpSubmit is RequestSpotInstances.
	OpSubmit
	// OpCancel is CancelSpotRequest.
	OpCancel
	// OpTerminate is TerminateInstance.
	OpTerminate
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpPriceHistory:
		return "price-history"
	case OpSubmit:
		return "submit"
	case OpCancel:
		return "cancel"
	case OpTerminate:
		return "terminate"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// FaultInjector lets a chaos layer (internal/chaos) perturb the region
// the way real EC2 perturbed the paper's client: failed API calls,
// degraded price telemetry, capacity outages, and late out-bid
// notices. A nil injector — the default — leaves every code path
// exactly as it was; with all fault rates at zero an injector must be
// behavior-preserving too, so a zero-rate chaos run is bit-identical
// to a fault-free one.
//
// The region calls these hooks from a single goroutine in a
// deterministic order; implementations that draw randomness per call
// stay reproducible for a fixed seed.
type FaultInjector interface {
	// APIFault is consulted at the entry of the client-facing call op
	// at the given slot; a non-nil error aborts the call without side
	// effects.
	APIFault(op Op, slot int) error
	// DegradeHistory may return a degraded copy of a PriceHistory
	// response (dropped, stale, duplicated, or corrupted telemetry).
	// It must not mutate tr, which shares storage with the live
	// market, and must return a valid trace (or tr unchanged).
	DegradeHistory(tr *trace.Trace, slot int) *trace.Trace
	// LaunchBlocked reports whether the spot market for t refuses
	// launches at the slot — a capacity outage. Pending requests stay
	// open and relaunch when the outage lifts.
	LaunchBlocked(t instances.Type, slot int) bool
	// OutbidDelay reports how many extra slots a freshly out-bid
	// instance keeps running — and billing — before the termination
	// lands, like EC2's two-minute warning. 0 terminates in the same
	// slot (the fault-free behavior).
	OutbidDelay(slot int) int
}

// SetInjector installs (or, with nil, removes) the region's fault
// injector. Install it before the first Tick so every slot of the
// simulation sees the same fault process. Injectors that additionally
// implement `Validate() error` (chaos.Injector, chaos.ScheduleInjector)
// are validated here, so a misconfigured fault process is rejected at
// install time instead of silently skewing a run.
func (r *Region) SetInjector(inj FaultInjector) error {
	if v, ok := inj.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("cloud: rejecting fault injector: %w", err)
		}
	}
	r.inj = inj
	return nil
}

// Injector returns the installed fault injector (nil when fault-free).
func (r *Region) Injector() FaultInjector { return r.inj }

// apiFault consults the injector for op at the current slot.
func (r *Region) apiFault(op Op) error {
	if r.inj == nil {
		return nil
	}
	err := r.inj.APIFault(op, r.clock.Now())
	if err != nil {
		r.counts.APIFaults++
		if r.met != nil {
			r.met.apiFaults.Inc()
		}
	}
	return err
}
