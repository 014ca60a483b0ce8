package invariant

import (
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/job"
	"repro/internal/obs/event"
	"repro/internal/timeslot"
)

// --- breaker-legality ---------------------------------------------------

func transitionEvent(region string, state fleet.BreakerState, cause string, vec []float64) event.Event {
	return event.Event{Kind: event.BreakerTransition, Slot: 100, Region: region,
		Subject: state.String(), Cause: cause, Value: float64(state), Vec: vec}
}

func healthVec(blockedStreak, score float64) []float64 {
	return []float64{0.1, 0, 0, blockedStreak, 0, score}
}

func breakerViolations(t *testing.T, evs ...event.Event) []Violation {
	t.Helper()
	c := newBreakerChecker()
	for _, ev := range evs {
		c.Observe(ev)
	}
	c.Finish(nil)
	return c.Violations()
}

func TestBreakerCheckerLegalCycle(t *testing.T) {
	vs := breakerViolations(t,
		transitionEvent("r", fleet.Open, "health score 0.6123 >= 0.5000", healthVec(0, 0.6123)),
		transitionEvent("r", fleet.HalfOpen, "quarantine-elapsed", healthVec(0, 0.1)),
		transitionEvent("r", fleet.Closed, "probe-survived", healthVec(0, 0.05)),
		transitionEvent("r", fleet.Open, "capacity outage: 3 consecutive blocked slots", healthVec(3, 0.2)),
		transitionEvent("r", fleet.HalfOpen, "quarantine-elapsed", healthVec(0, 0)),
		transitionEvent("r", fleet.Open, "breaker-open", healthVec(0, 0)),
	)
	if len(vs) != 0 {
		t.Errorf("legal cycle flagged: %v", vs)
	}
}

func TestBreakerCheckerIllegalEdges(t *testing.T) {
	cases := []struct {
		name string
		evs  []event.Event
		want string
	}{
		{"closed-to-halfopen",
			[]event.Event{transitionEvent("r", fleet.HalfOpen, "quarantine-elapsed", healthVec(0, 0))},
			"illegal breaker transition"},
		{"open-to-closed",
			[]event.Event{
				transitionEvent("r", fleet.Open, "breaker-open", healthVec(0, 0)),
				transitionEvent("r", fleet.Closed, "probe-survived", healthVec(0, 0)),
			},
			"illegal breaker transition"},
		{"soft-trip-below-threshold",
			[]event.Event{transitionEvent("r", fleet.Open, "health score 0.3000 >= 0.5000", healthVec(0, 0.3))},
			"below TripScore"},
		{"capacity-trip-short-streak",
			[]event.Event{transitionEvent("r", fleet.Open, "capacity outage: 1 consecutive blocked slots", healthVec(1, 0))},
			"below OutageTrip"},
		{"unknown-cause",
			[]event.Event{transitionEvent("r", fleet.Open, "gremlins", healthVec(0, 1))},
			"unrecognized cause"},
		{"short-vector",
			[]event.Event{transitionEvent("r", fleet.Open, "breaker-open", []float64{1, 2})},
			"health vector has 2 terms"},
		{"subject-mismatch", []event.Event{
			{Kind: event.BreakerTransition, Slot: 1, Region: "r", Subject: "closed",
				Cause: "breaker-open", Value: float64(fleet.Open), Vec: healthVec(0, 0)},
		}, "disagrees with encoded state"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := breakerViolations(t, tc.evs...)
			if len(vs) == 0 {
				t.Fatalf("no violation for %s", tc.name)
			}
			found := false
			for _, v := range vs {
				if strings.Contains(v.Detail, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("violations %v lack %q", vs, tc.want)
			}
		})
	}
}

// TestBreakerCheckerPerRegionState: two regions' machines are
// independent — region b starting with a quarantine release is
// illegal even while region a cycles legally.
func TestBreakerCheckerPerRegionState(t *testing.T) {
	vs := breakerViolations(t,
		transitionEvent("a", fleet.Open, "breaker-open", healthVec(0, 0)),
		transitionEvent("b", fleet.HalfOpen, "quarantine-elapsed", healthVec(0, 0)),
	)
	if len(vs) != 1 || vs[0].Region != "b" {
		t.Errorf("want exactly one violation on region b, got %v", vs)
	}
}

// --- checkpoint-monotonicity --------------------------------------------

func checkpointViolations(t *testing.T, evs ...event.Event) []Violation {
	t.Helper()
	c := newCheckpointChecker()
	for _, ev := range evs {
		c.Observe(ev)
	}
	c.Finish(&RunState{Spec: job.Spec{ID: "j", Exec: 1, Recovery: timeslot.Seconds(30)}})
	return c.Violations()
}

func exportEvent(slot int, remaining float64) event.Event {
	return event.Event{Kind: event.CheckpointExport, Slot: slot, Job: "j", Value: remaining}
}

func importEvent(slot int, remaining float64) event.Event {
	return event.Event{Kind: event.CheckpointImport, Slot: slot, Job: "j", Value: remaining}
}

func TestCheckpointCheckerLegalMigration(t *testing.T) {
	pen := float64(timeslot.Seconds(60))
	vs := checkpointViolations(t,
		exportEvent(10, 0.6),
		importEvent(11, 0.6+pen),
		exportEvent(30, 0.2),
		importEvent(31, 0.2), // carried forward unchanged (no-progress leg)
	)
	if len(vs) != 0 {
		t.Errorf("legal migration chain flagged: %v", vs)
	}
}

func TestCheckpointCheckerViolations(t *testing.T) {
	pen := float64(timeslot.Seconds(60))
	cases := []struct {
		name string
		evs  []event.Event
		want string
	}{
		{"import-without-export",
			[]event.Event{importEvent(5, 0.5)},
			"no prior durable export"},
		{"import-exceeds-export",
			[]event.Event{exportEvent(10, 0.6), importEvent(11, 0.4)},
			"more progress than the last durable export"},
		{"import-regresses",
			[]event.Event{exportEvent(10, 0.6), importEvent(11, 0.6+pen+0.1)},
			"regressed past the last durable export"},
		{"export-exceeds-allowance",
			[]event.Event{exportEvent(10, 1.5)},
			"exceeds the"},
		{"second-export-exceeds-allowance",
			[]event.Event{exportEvent(10, 0.5), importEvent(11, 0.5), exportEvent(20, 0.9)},
			"exceeds the"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := checkpointViolations(t, tc.evs...)
			if len(vs) == 0 {
				t.Fatalf("no violation for %s", tc.name)
			}
			if !strings.Contains(vs[0].Detail, tc.want) {
				t.Errorf("violation %v lacks %q", vs[0], tc.want)
			}
		})
	}
}

// TestCheckpointCheckerIgnoresOtherJobs: the escalated on-demand
// job's records must not confuse the persistent job's chain.
func TestCheckpointCheckerIgnoresOtherJobs(t *testing.T) {
	other := event.Event{Kind: event.CheckpointImport, Slot: 5, Job: "j-escalated", Value: 0.9}
	vs := checkpointViolations(t, other)
	if len(vs) != 0 {
		t.Errorf("foreign job's events flagged: %v", vs)
	}
}
