package fleet

import "testing"

// TestBreakerTransitionTableExhaustive enumerates every (state,
// input) pair of the breaker state machine — all 3 states against all
// 8 input combinations — and pins the exact outcome of each: the four
// legal edges move, the zero input holds everywhere, conflicting
// inputs error, and every other pair errors while holding state.
func TestBreakerTransitionTableExhaustive(t *testing.T) {
	states := []BreakerState{Closed, Open, HalfOpen}
	type legal struct {
		next BreakerState
		ok   bool
	}
	// want[state][input bitmask trip|quarantine<<1|probe<<2]
	hold := func(s BreakerState) legal { return legal{s, false} }
	want := map[BreakerState]map[int]legal{
		Closed: {
			0b000: {Closed, true}, // nothing happened
			0b001: {Open, true},   // trip
			0b010: hold(Closed),   // quarantine-elapsed: illegal
			0b100: hold(Closed),   // probe-survived: illegal
		},
		Open: {
			0b000: {Open, true},
			0b001: hold(Open), // already open: a second trip is illegal
			0b010: {HalfOpen, true},
			0b100: hold(Open),
		},
		HalfOpen: {
			0b000: {HalfOpen, true},
			0b001: {Open, true},
			0b010: hold(HalfOpen),
			0b100: {Closed, true},
		},
	}
	for _, s := range states {
		for mask := 0; mask < 8; mask++ {
			in := BreakerInput{
				Trip:              mask&0b001 != 0,
				QuarantineElapsed: mask&0b010 != 0,
				ProbeSurvived:     mask&0b100 != 0,
			}
			next, err := NextBreakerState(s, in)
			exp, single := want[s][mask]
			if !single {
				// More than one input flag: always a conflict error that
				// holds state.
				if err == nil || next != s {
					t.Errorf("%v + %v: got (%v, %v), want conflict error holding state", s, in, next, err)
				}
				continue
			}
			if exp.ok {
				if err != nil || next != exp.next {
					t.Errorf("%v + %v: got (%v, %v), want (%v, nil)", s, in, next, err, exp.next)
				}
			} else {
				if err == nil || next != s {
					t.Errorf("%v + %v: got (%v, %v), want illegal-input error holding state", s, in, next, err)
				}
			}
		}
	}
}

// TestLegalTransitionMatchesStepFunction: the edge predicate the
// invariant checker uses and the step function the controller uses
// must describe the same diagram — every reachable (from, to) pair
// with from != to is legal iff some single input produces it.
func TestLegalTransitionMatchesStepFunction(t *testing.T) {
	states := []BreakerState{Closed, Open, HalfOpen}
	inputs := []BreakerInput{
		{Trip: true}, {QuarantineElapsed: true}, {ProbeSurvived: true},
	}
	for _, from := range states {
		for _, to := range states {
			if from == to {
				if LegalTransition(from, to) {
					t.Errorf("self-move %v -> %v reported legal", from, to)
				}
				continue
			}
			reachable := false
			for _, in := range inputs {
				if next, err := NextBreakerState(from, in); err == nil && next == to {
					reachable = true
				}
			}
			if got := LegalTransition(from, to); got != reachable {
				t.Errorf("LegalTransition(%v, %v) = %v, but step-function reachability is %v",
					from, to, got, reachable)
			}
		}
	}
}

// TestBreakerInputString pins the stimulus labels, including the
// invalid multi-flag rendering.
func TestBreakerInputString(t *testing.T) {
	cases := []struct {
		in   BreakerInput
		want string
	}{
		{BreakerInput{}, "none"},
		{BreakerInput{Trip: true}, "trip"},
		{BreakerInput{QuarantineElapsed: true}, "quarantine-elapsed"},
		{BreakerInput{ProbeSurvived: true}, "probe-survived"},
		{BreakerInput{Trip: true, ProbeSurvived: true}, "invalid(trip=true, quarantine=false, probe=true)"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}
