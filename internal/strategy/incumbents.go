package strategy

// The incumbents: the four strategies the client hard-coded before
// the engine existed, ported verbatim so the equivalence goldens in
// internal/client pin their behavior bit-for-bit.

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/timeslot"
)

// OneTime prices the job with Prop. 4 — the optimal one-time bid
// p* = max(π̲, F⁻¹(1 − t_k/t_s)) for jobs that must never be
// interrupted. An out-bid kills the job (no completion guarantee).
type OneTime struct{}

// Name implements Strategy.
func (OneTime) Name() string { return "one-time" }

// Decide implements Strategy.
func (OneTime) Decide(o Observation) (Decision, error) {
	bid, err := o.Market.OneTimeBid(o.Job)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Price: bid.Price, Kind: cloud.OneTime, Analytic: bid}, nil
}

// Persistent prices the job with Prop. 5 — the optimal persistent bid
// solving ψ(p) = t_k/t_r − 1, trading interruptions for price under
// Eq. 14's completion guarantee.
type Persistent struct{}

// Name implements Strategy.
func (Persistent) Name() string { return "persistent" }

// Decide implements Strategy.
func (Persistent) Decide(o Observation) (Decision, error) {
	bid, err := o.Market.PersistentBid(o.Job)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Price: bid.Price, Kind: cloud.Persistent, Analytic: bid}, nil
}

// Percentile bids the q-th percentile of the observed prices — the
// §7.1 "bid the 90th percentile" heuristic baseline.
type Percentile struct {
	// Q is the percentile in (0, 100).
	Q float64
	// Kind selects the request type (the paper's baseline uses
	// persistent requests).
	Kind cloud.RequestKind
}

// Name implements Strategy.
func (s Percentile) Name() string { return fmt.Sprintf("percentile-%g", s.Q) }

// Decide implements Strategy.
func (s Percentile) Decide(o Observation) (Decision, error) {
	price, err := o.Market.PercentileBid(s.Q)
	if err != nil {
		return Decision{}, err
	}
	analytic, err := Eval(o.Market, o.Job, price, s.Kind)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Price: analytic.Price, Kind: s.Kind, Analytic: analytic}, nil
}

// FixedBid bids an explicit price — the vehicle for externally
// computed baselines.
type FixedBid struct {
	// Label names the run's strategy ("fixed-bid" when empty).
	Label string
	// Price is the bid.
	Price float64
	// Kind selects the request type.
	Kind cloud.RequestKind
}

// Name implements Strategy.
func (s FixedBid) Name() string {
	if s.Label == "" {
		return "fixed-bid"
	}
	return s.Label
}

// Decide implements Strategy.
func (s FixedBid) Decide(o Observation) (Decision, error) {
	analytic, err := Eval(o.Market, o.Job, s.Price, s.Kind)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Price: analytic.Price, Kind: s.Kind, Analytic: analytic}, nil
}

// BestOffline is the §7.1 retrospective baseline: the cheapest fixed
// bid that would have kept the job running over the recent past,
// submitted as a one-time request. The paper's point stands in the
// tournament too — a short lookback underbids the future.
type BestOffline struct{}

// bestOfflineLookback is the history window the best-offline oracle
// optimizes over: the paper's 10 hours.
const bestOfflineLookback timeslot.Hours = 10

// Name implements Strategy.
func (BestOffline) Name() string { return "best-offline" }

// Decide implements Strategy.
func (BestOffline) Decide(o Observation) (Decision, error) {
	if o.BestOffline == nil {
		return Decision{}, errors.New("strategy: best-offline needs the client's price-history hook")
	}
	price, err := o.BestOffline(bestOfflineLookback)
	if err != nil {
		return Decision{}, err
	}
	analytic, err := Eval(o.Market, o.Job, price, cloud.OneTime)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Price: analytic.Price, Kind: cloud.OneTime, Analytic: analytic}, nil
}

// OnDemand never bids — the flat π̄ cost baseline every league table
// is ranked against.
type OnDemand struct{}

// Name implements Strategy.
func (OnDemand) Name() string { return "on-demand" }

// Decide implements Strategy.
func (OnDemand) Decide(Observation) (Decision, error) {
	return Decision{Abstain: true}, nil
}
