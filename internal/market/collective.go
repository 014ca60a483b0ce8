package market

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// BidObjective evaluates the provider's per-slot objective under an
// arbitrary bid-price distribution F_b (the §8 "collective user
// behavior" extension): accepted bids are the fraction above the spot
// price, N = L·(1 − F_b(π)), instead of Eq. 1's uniform special case.
func (p Provider) BidObjective(load, price float64, bids dist.Dist) float64 {
	n := p.AcceptedFromBids(load, price, bids)
	return p.Beta*math.Log1p(n) + price*n
}

// AcceptedFromBids returns N = L·(1 − F_b(π)).
func (p Provider) AcceptedFromBids(load, price float64, bids dist.Dist) float64 {
	if load <= 0 {
		return 0
	}
	return load * (1 - bids.CDF(price))
}

// OptimalPriceForBids maximizes the objective over [π̲, π̄] for an
// arbitrary bid distribution. The objective need not be unimodal for
// non-uniform bid distributions (a mass of identical optimizing
// bidders creates a cliff at their common bid), so a dense grid scan
// seeds a golden-section refinement.
func (p Provider) OptimalPriceForBids(load float64, bids dist.Dist) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if bids == nil {
		return 0, fmt.Errorf("market: nil bid distribution")
	}
	neg := func(x float64) float64 { return -p.BidObjective(load, x, bids) }
	xGrid, _ := dist.GridMin(neg, p.PMin, p.POnDemand, 600, nil)
	step := (p.POnDemand - p.PMin) / 600
	lo, hi := xGrid-step, xGrid+step
	if lo < p.PMin {
		lo = p.PMin
	}
	if hi > p.POnDemand {
		hi = p.POnDemand
	}
	x := dist.GoldenMin(neg, lo, hi, 1e-10)
	// The cliff edge can beat the interior refinement: keep whichever
	// of the two candidates scores better.
	if neg(xGrid) < neg(x) {
		x = xGrid
	}
	return x, nil
}
