package invariant

import (
	"fmt"

	"repro/internal/chaos"
)

// ScheduleResult is one schedule's audit outcome, JSON-ready for the
// campaign report. Schedule and Shrunk are copy-pasteable Go literals
// (chaos.Schedule GoString), so a violating campaign prints its own
// minimal reproducer.
type ScheduleResult struct {
	Index      int         `json:"index"`
	Faults     int         `json:"faults"`
	Schedule   string      `json:"schedule"`
	Violations []Violation `json:"violations,omitempty"`
	Err        string      `json:"err,omitempty"`

	// Shrinking fields, set by ShrinkViolating on violating schedules.
	Shrunk          string `json:"shrunk,omitempty"`
	ShrunkFaults    int    `json:"shrunk_faults,omitempty"`
	ShrinkEvals     int    `json:"shrink_evals,omitempty"`
	ShrinkTruncated bool   `json:"shrink_truncated,omitempty"`
}

// Clean reports the schedule ran and passed every checker.
func (r ScheduleResult) Clean() bool { return r.Err == "" && len(r.Violations) == 0 }

// CampaignReport summarizes a fault-schedule campaign. Results keeps
// only the non-clean schedules; the counters cover everything.
type CampaignReport struct {
	Seed      int64            `json:"seed"`
	Schedules int              `json:"schedules"`
	Checkers  []string         `json:"checkers"`
	Replay    bool             `json:"replay"`
	Clean     int              `json:"clean"`
	Violating int              `json:"violating"`
	Errors    int              `json:"errors"`
	Results   []ScheduleResult `json:"results,omitempty"`
}

// RunSchedule audits one schedule: run the scenario, feed the flight
// recorder through the invariant suite, and — when replay is set —
// run it a second time and compare fingerprints.
func RunSchedule(sc Scenario, idx int, sched chaos.Schedule, replay bool) ScheduleResult {
	res := ScheduleResult{Index: idx, Faults: len(sched), Schedule: sched.GoString()}
	first, err := sc.Run(sched)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Violations = NewSuite().Verify(first.Events, first.State)
	if replay {
		second, err := sc.Run(sched)
		if err != nil {
			res.Err = fmt.Sprintf("replay: %v", err)
			return res
		}
		res.Violations = append(res.Violations, CompareReplay(first, second)...)
	}
	return res
}

// Violates is the shrinking oracle over full schedule audits: true
// when the schedule produces at least one violation (errors do not
// count — an erroring schedule is a different defect than the one
// being minimized).
func Violates(sc Scenario, replay bool) func(chaos.Schedule) bool {
	var idx int
	return func(sched chaos.Schedule) bool {
		idx++
		r := RunSchedule(sc, -idx, sched, replay)
		return r.Err == "" && len(r.Violations) > 0
	}
}

// ShrinkViolating minimizes a violating schedule and records the
// reproducer on the result. budget caps oracle runs (default 200).
func ShrinkViolating(sc Scenario, res *ScheduleResult, sched chaos.Schedule, replay bool, budget int) {
	sr := Shrink(sched, sc.SubmitSlot(), Violates(sc, replay), budget)
	res.Shrunk = sr.Schedule.GoString()
	res.ShrunkFaults = len(sr.Schedule)
	res.ShrinkEvals = sr.Evals
	res.ShrinkTruncated = sr.Truncated
}

// Summarize folds per-schedule results into a campaign report,
// keeping only the non-clean ones.
func Summarize(seed int64, replay bool, results []ScheduleResult) CampaignReport {
	rep := CampaignReport{Seed: seed, Schedules: len(results), Checkers: Checkers(), Replay: replay}
	for _, r := range results {
		switch {
		case r.Err != "":
			rep.Errors++
			rep.Results = append(rep.Results, r)
		case len(r.Violations) > 0:
			rep.Violating++
			rep.Results = append(rep.Results, r)
		default:
			rep.Clean++
		}
	}
	return rep
}
