package fleet

import "fmt"

// The breaker state machine, extracted as a pure function so the legal
// transition set is written down once — the controller steps through
// it, the exhaustive transition-table test enumerates it, and the
// invariant breaker checker (internal/invariant) audits recorded
// transitions against it. Legal moves:
//
//	Closed   --trip-->               Open
//	Open     --quarantine elapsed--> HalfOpen
//	HalfOpen --probe survived-->     Closed
//	HalfOpen --trip-->               Open
//
// Everything else is illegal: a closed breaker cannot half-open, an
// open breaker cannot trip again or close directly, and a probe cannot
// both survive and trip in one step.

// BreakerInput is one slot's stimulus to a member's breaker. At most
// one field may be set; the zero value means "nothing happened" and
// always holds the current state.
type BreakerInput struct {
	// Trip: the member degraded past a trip line (health score or
	// capacity-outage streak) while hosting the job.
	Trip bool
	// QuarantineElapsed: the breaker has been open for openSlots.
	QuarantineElapsed bool
	// ProbeSurvived: the half-open member hosted the job for
	// probeSlots without tripping.
	ProbeSurvived bool
}

// String implements fmt.Stringer.
func (in BreakerInput) String() string {
	switch {
	case in.Trip && !in.QuarantineElapsed && !in.ProbeSurvived:
		return "trip"
	case in.QuarantineElapsed && !in.Trip && !in.ProbeSurvived:
		return "quarantine-elapsed"
	case in.ProbeSurvived && !in.Trip && !in.QuarantineElapsed:
		return "probe-survived"
	case !in.Trip && !in.QuarantineElapsed && !in.ProbeSurvived:
		return "none"
	default:
		return fmt.Sprintf("invalid(trip=%t, quarantine=%t, probe=%t)",
			in.Trip, in.QuarantineElapsed, in.ProbeSurvived)
	}
}

// NextBreakerState advances the breaker state machine one step. The
// zero input holds every state. Illegal (state, input) pairs — and
// inputs with more than one field set — return the current state and
// a non-nil error.
func NextBreakerState(s BreakerState, in BreakerInput) (BreakerState, error) {
	set := 0
	for _, b := range []bool{in.Trip, in.QuarantineElapsed, in.ProbeSurvived} {
		if b {
			set++
		}
	}
	if set > 1 {
		return s, fmt.Errorf("fleet: conflicting breaker input %s in state %s", in, s)
	}
	if set == 0 {
		return s, nil
	}
	switch s {
	case Closed:
		if in.Trip {
			return Open, nil
		}
	case Open:
		if in.QuarantineElapsed {
			return HalfOpen, nil
		}
	case HalfOpen:
		if in.Trip {
			return Open, nil
		}
		if in.ProbeSurvived {
			return Closed, nil
		}
	}
	return s, fmt.Errorf("fleet: illegal breaker input %s in state %s", in, s)
}

// LegalTransition reports whether a breaker may move from one state
// directly to a *different* state — the edge set of the diagram above.
// Self-moves are not transitions and report false.
func LegalTransition(from, to BreakerState) bool {
	switch {
	case from == Closed && to == Open:
		return true
	case from == Open && to == HalfOpen:
		return true
	case from == HalfOpen && to == Closed:
		return true
	case from == HalfOpen && to == Open:
		return true
	}
	return false
}

// breakerStep is NextBreakerState for the controller's own use: the
// controller only ever constructs legal inputs, so an error here is a
// controller bug and panics rather than silently holding state.
func breakerStep(s BreakerState, in BreakerInput) BreakerState {
	next, err := NextBreakerState(s, in)
	if err != nil {
		panic(err)
	}
	return next
}
