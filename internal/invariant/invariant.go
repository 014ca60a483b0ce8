// Package invariant is the reproduction's resilience verification
// layer: a set of runtime invariant checkers that audit a finished
// fleet run — from its flight-recorder event stream plus the final
// simulator state — and a systematic fault-schedule explorer that
// drives those checkers across enumerated and randomized chaos
// schedules, shrinking any violating schedule to a minimal
// reproducer.
//
// The invariants are the paper's guarantees turned into machine
// checks:
//
//   - Billing conservation (Eq. 9's continuous-limit cost model):
//     every instance's bill equals the sum over its billed slots of
//     that slot's price times the slot length, occupancy intervals
//     are exact, and the fleet bill is the sum of its members' —
//     leaked orphans billed exactly once, never dropped and never
//     double-counted.
//   - Job liveness (Prop. 5 / Eq. 14's guaranteed completion): the
//     persistent strategy finishes the job, and no spot request or
//     instance outlives the run except the explicitly excused leaks
//     the fleet report declares.
//   - Checkpoint monotonicity (§3.3's recovery accounting): durable
//     progress never regresses — an import never carries more
//     progress than the last durable export and never loses more
//     than the accounted migration penalty.
//   - Breaker legality: a member's circuit breaker only walks the
//     documented state machine (DESIGN.md §8), and every transition's
//     recorded cause is consistent with the health vector attached to
//     it.
//   - Replay determinism (the repo-wide seeded-run contract): the
//     same seed and fault schedule reproduce a byte-identical run
//     fingerprint.
package invariant

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
)

// Violation is one invariant breach. The zero Region means the
// violation is not attributable to a single member (e.g. a fleet-wide
// billing mismatch).
type Violation struct {
	// Checker names the invariant that fired.
	Checker string `json:"checker"`
	// Slot is the simulated slot the breach was observed at (-1 when
	// only detectable at end of run).
	Slot int `json:"slot"`
	// Region is the member concerned ("" when fleet-wide).
	Region string `json:"region,omitempty"`
	// Detail says what was expected and what was seen.
	Detail string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	where := v.Region
	if where == "" {
		where = "fleet"
	}
	return fmt.Sprintf("[%s] slot %d %s: %s", v.Checker, v.Slot, where, v.Detail)
}

// MemberState is one fleet member's final simulator state, handed to
// the checkers after the run.
type MemberState struct {
	// ID is the member's fleet ID ("region-0", ...).
	ID string
	// Region is the member's simulated cloud.
	Region *cloud.Region
	// Volume is the member's checkpoint volume.
	Volume *checkpoint.Volume
	// Metrics is the member client's registry.
	Metrics *obs.Registry
	// Injector is the member's armed fault schedule (nil when the
	// schedule targeted no faults here).
	Injector *chaos.ScheduleInjector
}

// RunState is everything a Finish-time checker may inspect: the job
// as submitted, every member's final state, and the fleet report. The
// checkers verify against the controller's fixed tuning (fleet.TripScore,
// fleet.OutageTrip, fleet.MigrationPenalty) and the job's own t_r.
type RunState struct {
	Spec    job.Spec
	Members []MemberState
	Report  fleet.Report
}

// Checker is one streaming invariant: it observes the flight
// recorder's events in emission order, then sees the final state, and
// reports the breaches it found. Checkers are single-use — build a
// fresh Suite per run.
type Checker interface {
	// Name is the stable checker identifier used in Violation.Checker.
	Name() string
	// Observe feeds one event, in Seq order.
	Observe(ev event.Event)
	// Finish hands over the final run state after the last event.
	Finish(st *RunState)
	// Violations returns the breaches found, in detection order.
	Violations() []Violation
}

// Suite bundles the stream/state checkers for one run. The fifth
// invariant — replay determinism — compares two whole runs and lives
// in CompareReplay instead.
type Suite struct {
	checkers []Checker
}

// NewSuite builds a fresh checker suite for one run.
func NewSuite() *Suite {
	return &Suite{checkers: []Checker{
		newBillingChecker(),
		newLivenessChecker(),
		newCheckpointChecker(),
		newBreakerChecker(),
	}}
}

// Checkers lists every invariant the campaign runs, including the
// run-pair replay check.
func Checkers() []string {
	return []string{
		"billing-conservation",
		"job-liveness",
		"checkpoint-monotonicity",
		"breaker-legality",
		"replay-determinism",
	}
}

// Verify feeds the whole event stream through every checker, hands
// them the final state, and returns all violations in checker order.
func (s *Suite) Verify(events []event.Event, st *RunState) []Violation {
	for _, ev := range events {
		for _, c := range s.checkers {
			c.Observe(ev)
		}
	}
	var out []Violation
	for _, c := range s.checkers {
		c.Finish(st)
		out = append(out, c.Violations()...)
	}
	return out
}
