package strategy

// An AutoSpotting-style opportunistic-replace heuristic: start safe
// on an on-demand instance, watch the spot market, and replace the
// instance with a spot request bid at the on-demand price once the
// market has offered a deep enough discount for long enough. If the
// spot leg then starves (out-bid and idle past the attrition window),
// fall back to on-demand and start watching again. This is how the
// open-source AutoSpotting controller manages autoscaling groups:
// bid-at-on-demand, replace opportunistically, never let attrition
// stall the workload.

import (
	"repro/internal/cloud"
)

// The heuristic's tuning: the minimum relative saving before
// replacing (spot ≤ (1−autoDiscount)·on-demand), how many consecutive
// discounted slots must be seen first (half an hour), and how many idle
// slots a spot leg tolerates before falling back to on-demand (one
// hour).
const (
	autoDiscount  = 0.30
	autoPatience  = 6
	autoAttrition = 12
)

// AutoSpot is the opportunistic-replace heuristic. The registry hands
// every run a fresh instance, so the discount streak never leaks
// across jobs.
type AutoSpot struct {
	streak int
}

// Name implements Strategy.
func (a *AutoSpot) Name() string { return "autospot" }

// Decide implements Strategy: the first leg always runs on-demand —
// the workload starts immediately, savings come later.
func (a *AutoSpot) Decide(o Observation) (Decision, error) {
	a.streak = 0
	return Decision{Abstain: true}, nil
}

// Reprice implements Adaptive.
func (a *AutoSpot) Reprice(o Observation) (Decision, bool) {
	if o.OnSpot {
		a.streak = 0
		if o.IdleSlots >= autoAttrition {
			// Attrition: the market took the discount back; finish the
			// remainder on-demand and watch for the next window.
			return Decision{Abstain: true}, true
		}
		return Decision{}, false
	}
	_, od := bounds(o.Market)
	if o.Spot > 0 && o.Spot <= (1-autoDiscount)*od {
		a.streak++
	} else {
		a.streak = 0
	}
	if a.streak < autoPatience {
		return Decision{}, false
	}
	// Replace: bid the on-demand price (AutoSpotting's bid), so the
	// spot leg only dies if the market exceeds what we were paying
	// anyway.
	a.streak = 0
	return Decision{Price: od, Kind: cloud.Persistent,
		Analytic: evalLenient(o.Market, o.Job, od, cloud.Persistent)}, true
}
