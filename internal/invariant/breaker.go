package invariant

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/obs/event"
)

// scoreEps absorbs float noise when comparing recorded health scores
// against the trip threshold.
const scoreEps = 1e-9

// breakerChecker verifies every BreakerTransition event walks the
// legal state machine (DESIGN.md §8) — Closed→Open, Open→HalfOpen,
// HalfOpen→{Open, Closed}, nothing else — and that each transition's
// recorded cause is consistent with the health vector attached to it:
// a soft (score) trip must carry a score at or above TripScore, a
// capacity hard trip must carry a blocked streak at or above
// OutageTrip, quarantine release and probe survival must say so.
type breakerChecker struct {
	state map[string]fleet.BreakerState // per member; zero value is Closed
	vs    []Violation
}

func newBreakerChecker() *breakerChecker {
	return &breakerChecker{state: make(map[string]fleet.BreakerState)}
}

func (c *breakerChecker) Name() string            { return "breaker-legality" }
func (c *breakerChecker) Finish(st *RunState)     {}
func (c *breakerChecker) Violations() []Violation { return c.vs }

func (c *breakerChecker) fail(ev event.Event, detail string, args ...any) {
	c.vs = append(c.vs, Violation{Checker: c.Name(), Slot: ev.Slot, Region: ev.Region,
		Detail: fmt.Sprintf(detail, args...)})
}

// healthVecLen is the BreakerTransition vector layout: the three rate
// terms, the two streaks, and the composite score.
const healthVecLen = 6

func (c *breakerChecker) Observe(ev event.Event) {
	if ev.Kind != event.BreakerTransition {
		return
	}
	prev := c.state[ev.Region]
	next := fleet.BreakerState(int(ev.Value))
	c.state[ev.Region] = next

	if ev.Subject != next.String() {
		c.fail(ev, "transition subject %q disagrees with encoded state %v", ev.Subject, next)
	}
	if !fleet.LegalTransition(prev, next) {
		c.fail(ev, "illegal breaker transition %v -> %v", prev, next)
	}
	if len(ev.Vec) != healthVecLen {
		c.fail(ev, "health vector has %d terms, want %d", len(ev.Vec), healthVecLen)
		return
	}
	score, blockedStreak := ev.Vec[5], ev.Vec[3]
	switch next {
	case fleet.HalfOpen:
		if ev.Cause != "quarantine-elapsed" {
			c.fail(ev, "transition to half-open with cause %q, want quarantine-elapsed", ev.Cause)
		}
	case fleet.Closed:
		if ev.Cause != "probe-survived" {
			c.fail(ev, "transition to closed with cause %q, want probe-survived", ev.Cause)
		}
	case fleet.Open:
		switch {
		case strings.HasPrefix(ev.Cause, "health score "):
			if score < fleet.TripScore-scoreEps {
				c.fail(ev, "soft trip recorded score %v below TripScore %v", score, fleet.TripScore)
			}
		case strings.HasPrefix(ev.Cause, "capacity outage: "):
			if blockedStreak < fleet.OutageTrip {
				c.fail(ev, "capacity hard trip with blocked streak %v below OutageTrip %d",
					blockedStreak, fleet.OutageTrip)
			}
		case ev.Cause == "breaker-open" || ev.Cause == "fallback-vetoed" ||
			strings.HasPrefix(ev.Cause, "transient: "):
			// A leg abort tripping the host: the cause is the abort
			// reason itself; no vector precondition applies.
		default:
			c.fail(ev, "trip with unrecognized cause %q", ev.Cause)
		}
	default:
		c.fail(ev, "transition to unknown breaker state %v", next)
	}
}
