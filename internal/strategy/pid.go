package strategy

// A PID feedback-control bidder in the spirit of Li, Kihl and
// Robertsson, "Performance-controlled spot instance bidding" (2017):
// instead of solving the paper's closed-form optimum, the controller
// tracks a setpoint — a headroom margin above the live spot price —
// and walks its bid toward it with a clamped
// proportional–integral–derivative update each slot. The bid can
// never leave [floor, on-demand]: the proportional path is clamped,
// and the integral term saturates (anti-windup) so a long price
// spike cannot wind the controller past the ceiling.

import (
	"repro/internal/cloud"
)

// The controller's tuning: the PID gains, the headroom setpoint (the
// bid is steered toward Spot·(1+pidMargin)), the initial bid's
// acceptance quantile, and how many consecutive idle slots a spot leg
// tolerates before the corrected bid is resubmitted.
const (
	pidKp, pidKi, pidKd = 0.5, 0.1, 0.05
	pidMargin           = 0.25
	pidTarget           = 0.85
	pidPatience         = 3
)

// PID is the feedback-control bidder. The registry hands every run a
// fresh instance, so controller state never leaks across jobs.
type PID struct {
	bid      float64
	integral float64
	prevErr  float64
}

// Name implements Strategy.
func (p *PID) Name() string { return "pid" }

// Decide implements Strategy: the initial bid sits at the pidTarget
// acceptance quantile, clamped into [floor, on-demand].
func (p *PID) Decide(o Observation) (Decision, error) {
	lo, hi := bounds(o.Market)
	raw := hi
	if o.Market.Price != nil {
		raw = o.Market.Price.Quantile(pidTarget)
	}
	p.bid = clamp(raw, lo, hi)
	p.integral, p.prevErr = 0, 0
	return Decision{Price: p.bid, Kind: cloud.Persistent,
		Analytic: evalLenient(o.Market, o.Job, p.bid, cloud.Persistent)}, nil
}

// Reprice implements Adaptive: the controller state advances every
// slot, but a new bid is only submitted when the current spot leg has
// been idle (out-bid) for pidPatience slots — a running instance at a
// stale bid costs nothing extra, so there is nothing to correct.
func (p *PID) Reprice(o Observation) (Decision, bool) {
	lo, hi := bounds(o.Market)
	e := o.Spot*(1+pidMargin) - p.bid
	if e != e { // NaN spot reading: hold the controller still
		return Decision{}, false
	}
	// Anti-windup: the integral saturates at the bid ceiling, so the
	// accumulated term alone can never push past on-demand.
	p.integral = clamp(p.integral+e, -hi, hi)
	d := e - p.prevErr
	p.prevErr = e
	p.bid = clamp(p.bid+pidKp*e+pidKi*p.integral+pidKd*d, lo, hi)
	if !o.OnSpot || o.IdleSlots < pidPatience {
		return Decision{}, false
	}
	return Decision{Price: p.bid, Kind: cloud.Persistent,
		Analytic: evalLenient(o.Market, o.Job, p.bid, cloud.Persistent)}, true
}
