package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/timeslot"
)

// ExpectedUninterruptedRun returns t_k/(1 − F(p)): the expected time a
// request at bid price p keeps running before the spot price first
// exceeds it (Eq. 8, the geometric-survival expectation). It is +Inf
// when F(p) = 1.
func (m Market) ExpectedUninterruptedRun(p float64) (timeslot.Hours, error) {
	mm, err := m.normalized()
	if err != nil {
		return 0, err
	}
	f := mm.Price.CDF(p)
	if f >= 1 {
		return timeslot.Hours(math.Inf(1)), nil
	}
	return timeslot.Hours(float64(mm.Slot) / (1 - f)), nil
}

// EvalOneTime computes the analytic predictions for a one-time request
// at an arbitrary bid price p (the objective and constraints of
// Eq. 10). A one-time request is never resumed, so its expected
// running time is the execution time and it suffers no recovery
// overhead; Feasible (BeatsOnDemand plus the no-interruption
// constraint) is reported through the returned error of OneTimeBid —
// here the caller inspects the fields.
func (m Market) EvalOneTime(p float64, job Job) (Bid, error) {
	mm, err := m.normalized()
	if err != nil {
		return Bid{}, err
	}
	if err := job.Validate(); err != nil {
		return Bid{}, err
	}
	f, pm := dist.CDFPartialMean(mm.Price, p)
	espot := pm / f // E[π | π ≤ p], as dist.ConditionalMean computes it
	if f == 0 || math.IsNaN(espot) {
		espot = p // bid below the support: if it ever ran it would pay ≤ p
	}
	cost := float64(job.Exec) * espot
	odCost := float64(job.Exec) * mm.OnDemand
	return Bid{
		Price:              p,
		AcceptProb:         f,
		ExpectedSpot:       espot,
		ExpectedRunTime:    job.Exec,
		ExpectedCompletion: job.Exec,
		ExpectedCost:       cost,
		OnDemandCost:       odCost,
		BeatsOnDemand:      cost <= odCost,
	}, nil
}

// OneTimeBid computes the optimal one-time bid (Prop. 4):
//
//	p* = max(π̲, F⁻¹(1 − t_k/t_s)).
//
// The expected accepted price E[π | π ≤ p] increases with p
// (Prop. 4's proof), so the cheapest feasible bid is the lowest one
// whose expected uninterrupted run covers the execution time:
// t_k/(1 − F(p)) ≥ t_s. Jobs no longer than one slot bid the floor.
//
// It returns an error when even bidding the on-demand price cannot
// satisfy the no-interruption constraint (possible only for price
// distributions whose support exceeds π̄).
func (m Market) OneTimeBid(job Job) (Bid, error) {
	mm, err := m.normalized()
	if err != nil {
		return Bid{}, err
	}
	if err := job.Validate(); err != nil {
		return Bid{}, err
	}
	q := 1 - float64(mm.Slot)/float64(job.Exec)
	var p float64
	if q <= 0 {
		p = mm.MinPrice
	} else {
		p = math.Max(mm.MinPrice, quantileAtLeast(mm.Price, q, mm.OnDemand))
	}
	if p > mm.OnDemand {
		p = mm.OnDemand
	}
	bid, err := mm.EvalOneTime(p, job)
	if err != nil {
		return Bid{}, err
	}
	if q > 0 && bid.AcceptProb < q {
		return bid, fmt.Errorf("core: no bid ≤ π̄ = %v satisfies the no-interruption constraint (need F(p) ≥ %v, have %v)",
			mm.OnDemand, q, bid.AcceptProb)
	}
	return bid, nil
}
