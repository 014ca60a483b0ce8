package client

import (
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/retry"
	"repro/internal/timeslot"
)

// FallbackReport summarizes a one-time-with-fallback run: §3.2 notes
// that one-time bids give completion-time control because "users may
// default to on-demand instances if the jobs are not completed" —
// this strategy implements exactly that playbook.
type FallbackReport struct {
	// Spot is the one-time attempt (its analytic predictions and
	// whatever it completed before failing, if it failed).
	Spot Report
	// FellBack reports whether the on-demand fallback ran.
	FellBack bool
	// OnDemand is the fallback outcome (zero unless FellBack).
	OnDemand job.Outcome
	// TotalCost sums both phases.
	TotalCost float64
	// Completion is submission-to-finish across both phases.
	Completion timeslot.Hours
	// Completed reports overall success.
	Completed bool
}

// Savings reports the relative cost reduction versus running the
// whole job on-demand. A baseline that isn't positive — zero or
// negative price, zero or negative execution time, or any NaN — has
// no meaningful savings and reports 0 rather than ±Inf or NaN.
func (f FallbackReport) Savings(onDemandPrice float64, exec timeslot.Hours) float64 {
	base := onDemandPrice * float64(exec)
	if !(base > 0) {
		return 0
	}
	return 1 - f.TotalCost/base
}

// RunOneTimeWithFallback bids the Prop. 4 one-time optimum; if the
// request is out-bid before the job finishes, the remaining work
// (plus one recovery, t_r — the state must be restored onto the new
// machine) immediately restarts on an on-demand instance. The user
// gets a hard completion guarantee and keeps the spot discount on the
// fraction of the job that ran before the interruption.
func (c *Client) RunOneTimeWithFallback(spec job.Spec) (FallbackReport, error) {
	m, tel, err := c.market(spec.Type)
	if err != nil {
		return FallbackReport{}, err
	}
	bid, err := m.OneTimeBid(core.Job{Exec: spec.Exec, Recovery: spec.Recovery})
	if err != nil {
		return FallbackReport{}, err
	}
	c.setActive(nil)
	tracker, err := c.submitSpot(spec, bid.Price, cloud.OneTime, &tel)
	if err != nil {
		if !retry.IsTransient(err) {
			return FallbackReport{}, err
		}
		// Submission budget exhausted: skip the spot phase entirely
		// and run the whole job on the on-demand fallback.
		tel.FellBackOnDemand = true
		odRep, err := c.RunOnDemand(spec)
		if err != nil {
			return FallbackReport{}, err
		}
		return FallbackReport{
			Spot:       Report{Strategy: "one-time+fallback", Analytic: bid, Telemetry: tel},
			FellBack:   true,
			OnDemand:   odRep.Outcome,
			TotalCost:  odRep.Outcome.Cost,
			Completion: odRep.Outcome.Completion,
			Completed:  odRep.Outcome.Completed,
		}, nil
	}
	c.setActive(tracker)
	out, err := job.Run(c.tick, tracker, nil)
	if err != nil {
		return FallbackReport{}, err
	}
	rep := FallbackReport{
		Spot:       Report{Strategy: "one-time+fallback", BidPrice: bid.Price, Analytic: bid, Outcome: out, Telemetry: tel},
		TotalCost:  out.Cost,
		Completion: out.Completion,
		Completed:  out.Completed,
	}
	if out.Completed {
		return rep, nil
	}
	if tracker.Status() != job.Failed {
		// The trace ran out mid-job: nothing to fall back onto.
		return rep, nil
	}
	fbOut, err := c.finishOnDemand(spec, tracker, out, "-fallback")
	if err != nil {
		return rep, err
	}
	rep.FellBack = true
	rep.OnDemand = fbOut
	rep.TotalCost = out.Cost + fbOut.Cost
	rep.Completion = out.Completion + fbOut.Completion
	rep.Completed = fbOut.Completed
	return rep, nil
}
