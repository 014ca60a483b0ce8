package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/timeslot"
)

// ErrInfeasible reports that no bid in [π̲, π̄] can satisfy a job's
// interruptibility constraint (Eq. 14).
var ErrInfeasible = fmt.Errorf("core: job infeasible on spot instances")

// ExpectedRunningTime evaluates Eq. 13: the expected running time
// (execution + recovery, excluding idle) of a persistent request at
// bid price p,
//
//	T·F(p) = (t_s − t_r) / (1 − (t_r/t_k)·(1 − F(p))).
//
// It returns an error when the bid violates the interruptibility
// constraint t_r < t_k/(1−F(p)) (Eq. 14), which is exactly when the
// denominator is non-positive: recoveries then accumulate faster than
// the job progresses and the running time diverges.
func (m Market) ExpectedRunningTime(p float64, job Job) (timeslot.Hours, error) {
	mm, err := m.normalized()
	if err != nil {
		return 0, err
	}
	if err := job.Validate(); err != nil {
		return 0, err
	}
	return runningTime(p, mm.Price.CDF(p), job, mm.Slot)
}

// runningTime is Eq. 13 at bid p with acceptance probability
// f = F(p), for a validated job and a positive slot length t_k.
func runningTime(p, f float64, job Job, slot timeslot.Hours) (timeslot.Hours, error) {
	den := 1 - float64(job.Recovery)/float64(slot)*(1-f)
	if den <= 0 {
		return 0, fmt.Errorf("%w: recovery %v ≥ expected uninterrupted run %v at bid %v",
			ErrInfeasible, job.Recovery, timeslot.Hours(float64(slot)/(1-f)), p)
	}
	return timeslot.Hours(float64(job.Exec-job.Recovery) / den), nil
}

// EvalPersistent computes the analytic predictions (Eq. 13 + Eq. 9,
// the Φ_sp objective of Eq. 15) for a persistent request at an
// arbitrary bid price p. It errors when p is below the price support
// (the job never runs) or violates the interruptibility constraint.
// It normalizes the market, validates the job and hands both to
// evalPersistent, which searches the price once.
func (m Market) EvalPersistent(p float64, job Job) (Bid, error) {
	mm, err := m.normalized()
	if err != nil {
		return Bid{}, err
	}
	if err := job.Validate(); err != nil {
		return Bid{}, err
	}
	return mm.evalPersistent(p, job)
}

// evalPersistent is EvalPersistent on a normalized market and a
// validated job. It reads F(p) and PartialMean(p) in one
// dist.CDFPartialMean call and derives both Eq. 13's running time and
// Eq. 9's E[π | π ≤ p] = PartialMean(p)/F(p) from them, the arithmetic
// ExpectedRunningTime and dist.ConditionalMean perform, so every field
// is bit for bit what composing those two returns. The result depends
// on p only through those two values: p itself reaches only the
// Price field and the error text.
func (m Market) evalPersistent(p float64, job Job) (Bid, error) {
	f, pm := dist.CDFPartialMean(m.Price, p)
	if f <= 0 {
		return Bid{}, fmt.Errorf("%w: bid %v never beats the spot price", ErrInfeasible, p)
	}
	run, err := runningTime(p, f, job, m.Slot)
	if err != nil {
		return Bid{}, err
	}
	espot := pm / f
	completion := timeslot.Hours(float64(run) / f)
	// Recoveries: T·F(1−F)/t_k − 1 (the accounting behind Eq. 13).
	inter := float64(completion)/float64(m.Slot)*f*(1-f) - 1
	if inter < 0 {
		inter = 0
	}
	cost := float64(run) * espot
	odCost := float64(job.Exec) * m.OnDemand
	return Bid{
		Price:                 p,
		AcceptProb:            f,
		ExpectedSpot:          espot,
		ExpectedRunTime:       run,
		ExpectedCompletion:    completion,
		ExpectedInterruptions: inter,
		ExpectedCost:          cost,
		OnDemandCost:          odCost,
		BeatsOnDemand:         cost <= odCost,
	}, nil
}

// Psi evaluates ψ(p) = F(p)·(A/B − 1) with A = ∫_π̲^p x f(x) dx and
// B = ∫_π̲^p (p − x) f(x) dx — the first-order-condition function of
// Prop. 5, whose level t_k/t_r − 1 the optimal persistent bid
// attains. ψ decreases in p for the monotonically decreasing spot
// densities the model produces (see DESIGN.md for why the paper's
// "increasing" is a typo), so the FOC is solved by bisection from
// above. ψ is +Inf at the bottom of the support (B → 0).
func (m Market) Psi(p float64) (float64, error) {
	mm, err := m.normalized()
	if err != nil {
		return 0, err
	}
	return mm.psi(p), nil
}

// psi is Psi on a normalized market.
func (m Market) psi(p float64) float64 {
	f, a := dist.CDFPartialMean(m.Price, p)
	b := p*f - a
	if b <= 0 {
		return math.Inf(1)
	}
	return f * (a/b - 1)
}

// PersistentBid computes the optimal persistent bid (Prop. 5): the
// minimizer of the expected cost Φ_sp(p) = T·F(p)·E[π | π ≤ p] over
// feasible bids. The primary solver bisects the first-order condition
// ψ(p) = t_k/t_r − 1; a dense-grid + golden-section minimization of
// Φ_sp runs alongside as a safety net (they agree on smooth
// distributions; the grid wins on step-function ECDFs where ψ is
// noisy), and the cheaper candidate is returned. The market is
// normalized and the job validated once; every cost evaluation and ψ
// probe runs on the normalized market with one dist.CDFPartialMean
// read. On an Empirical or a WindowedECDF price the grid evaluates the
// cost once per price step it crosses, not at all 401 points: ~100
// cost evaluations per solve on a 61-day dwell-18 window, against
// 443–446, beside 41–43 ψ probes.
//
// A zero recovery time makes every interruption free; the optimum is
// then the bid floor. It returns ErrInfeasible when Eq. 14 cannot be
// satisfied by any bid up to π̄.
func (m Market) PersistentBid(job Job) (Bid, error) {
	mm, err := m.normalized()
	if err != nil {
		return Bid{}, err
	}
	if err := job.Validate(); err != nil {
		return Bid{}, err
	}
	sup := mm.Price.Support()
	lo := math.Max(mm.MinPrice, sup.Lo)
	hi := mm.OnDemand

	// Interruptibility lower bound (Eq. 14): F(p) > 1 − t_k/t_r.
	if job.Recovery > 0 {
		if qFeas := 1 - float64(mm.Slot)/float64(job.Recovery); qFeas > 0 {
			pFeas := quantileAtLeast(mm.Price, qFeas, hi)
			// Strict inequality: nudge above the boundary.
			pFeas += 1e-12 * math.Max(pFeas, 1)
			if pFeas > lo {
				lo = pFeas
			}
		}
	}
	if lo > hi {
		return Bid{}, fmt.Errorf("%w: interruptibility needs a bid above π̄ = %v", ErrInfeasible, hi)
	}

	cost := func(p float64) float64 {
		b, err := mm.evalPersistent(p, job)
		if err != nil {
			return math.Inf(1)
		}
		return b.ExpectedCost
	}

	candidates := []float64{lo, hi}
	// FOC bisection on the decreasing ψ.
	if job.Recovery > 0 {
		target := float64(mm.Slot)/float64(job.Recovery) - 1
		g := func(p float64) float64 {
			v := mm.psi(p)
			if math.IsInf(v, 1) {
				return math.Inf(1)
			}
			return v - target
		}
		candidates = append(candidates, dist.Bisect(g, lo, hi, 1e-12, 200))
	}
	// Grid scan + golden refinement. On an ECDF, whose Values are its
	// sorted sample, the cost depends on p only through #{x_i ≤ p}, so
	// the grid prices each step it crosses once.
	var steps []float64
	if d, ok := mm.Price.(interface{ Values() []float64 }); ok {
		steps = d.Values()
	}
	xGrid, _ := dist.GridMin(cost, lo, hi, 400, steps)
	step := (hi - lo) / 400
	xRef := dist.GoldenMin(cost, math.Max(lo, xGrid-step), math.Min(hi, xGrid+step), 1e-10)
	candidates = append(candidates, xGrid, xRef)

	best := math.Inf(1)
	var bestBid Bid
	var found bool
	for _, p := range candidates {
		if p < lo || p > hi || math.IsNaN(p) {
			continue
		}
		b, err := mm.evalPersistent(p, job)
		if err != nil {
			continue
		}
		if b.ExpectedCost < best {
			best, bestBid, found = b.ExpectedCost, b, true
		}
	}
	if !found {
		return Bid{}, fmt.Errorf("%w: no feasible bid in [%v, %v]", ErrInfeasible, lo, hi)
	}
	return bestBid, nil
}
