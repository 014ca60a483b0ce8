package experiments

import (
	"repro/internal/invariant"
	"repro/internal/sched"
)

// ResilienceOpts configures a fault-schedule campaign: the scenario
// to perturb, the schedule lattice, and the audit depth. Zero values
// get the smoke-campaign defaults.
type ResilienceOpts struct {
	// Scenario is the fleet run every schedule perturbs.
	Scenario invariant.Scenario
	// Grid is the explicit schedule lattice (zero: DefaultGrid).
	Grid invariant.Grid
	// Random adds seeded random schedules on top of the grid
	// (default 30; negative disables).
	Random int
	// RandomMaxFaults bounds faults per random schedule (default 3).
	RandomMaxFaults int
	// RandomWindow is the random start-slot window after submission
	// (default 72 slots).
	RandomWindow int
	// Replay re-runs every schedule and compares fingerprints — the
	// replay-determinism invariant (default off; the smoke campaign
	// turns it on).
	Replay bool
	// ShrinkBudget caps oracle evaluations per violating-schedule
	// shrink (default 200).
	ShrinkBudget int
}

func (o ResilienceOpts) withDefaults() ResilienceOpts {
	if len(o.Grid.Kinds) == 0 {
		grid := invariant.DefaultGrid()
		grid.Seed = o.Grid.Seed
		o.Grid = grid
	}
	if o.Grid.Seed == 0 {
		o.Grid.Seed = 1
	}
	if o.Random == 0 {
		o.Random = 30
	}
	if o.RandomMaxFaults <= 0 {
		o.RandomMaxFaults = 3
	}
	if o.RandomWindow <= 0 {
		o.RandomWindow = 72
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 200
	}
	return o
}

// ResilienceCampaign audits every schedule of the lattice — grid
// singles and pairs plus seeded random schedules — against the full
// invariant suite, in parallel over the worker pool, then shrinks any
// violating schedule to a minimal reproducer. Deterministic for a
// fixed scenario and grid seed: the schedule list, every run, and the
// report are identical across invocations.
func ResilienceCampaign(o ResilienceOpts) (invariant.CampaignReport, error) {
	o = o.withDefaults()
	base := o.Scenario.SubmitSlot()
	scheds := o.Grid.Schedules(base)
	if o.Random > 0 {
		scheds = append(scheds, o.Grid.Random(o.Random, o.RandomMaxFaults, base, o.RandomWindow)...)
	}
	results := make([]invariant.ScheduleResult, len(scheds))
	err := sched.Grid(len(scheds), 1, nil, func(ci, _ int) error {
		results[ci] = invariant.RunSchedule(o.Scenario, ci, scheds[ci], o.Replay)
		return nil
	})
	if err != nil {
		return invariant.CampaignReport{}, err
	}
	// Shrinking re-runs the scenario up to ShrinkBudget times per
	// violating schedule; runs sequentially — violations are the
	// exceptional case.
	for i := range results {
		if results[i].Err == "" && len(results[i].Violations) > 0 {
			invariant.ShrinkViolating(o.Scenario, &results[i], scheds[i], o.Replay, o.ShrinkBudget)
		}
	}
	seed := o.Scenario.Seed
	if seed == 0 {
		seed = 1
	}
	return invariant.Summarize(seed, o.Replay, results), nil
}
