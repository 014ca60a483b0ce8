package market

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arrivals"
	"repro/internal/obs"
)

// Simulator runs the full queue dynamics of Fig. 2: every slot new
// bids arrive, the provider prices the slot with Eq. 3, accepted
// instances run, a fraction θ finishes, and unfinished/pending bids
// roll into the next slot via Eq. 4. Unlike the equilibrium sampler
// (EquilibriumPriceDist), the simulator's prices are correlated
// through the shared queue — it is the ground truth against which the
// i.i.d. equilibrium approximation is validated.
type Simulator struct {
	// Provider holds the pricing parameters.
	Provider Provider
	// Arrivals generates Λ(t).
	Arrivals arrivals.Process
	// InitialLoad is L(0). When zero, the simulator starts at the
	// equilibrium load for the mean arrival volume, skipping the
	// transient; Run fails when that load is not finite (e.g. Pareto
	// arrivals with shape ≤ 1 have no finite mean).
	InitialLoad float64
	// Warmup discards this many leading slots from the result.
	Warmup int
	// Metrics, when non-nil, records the post-warmup trajectory:
	// market.slots (counter), market.queue_len and market.accepted
	// (histograms over obs.LoadBuckets, the paper's L(t) and N(t)),
	// and market.price_usd (histogram over obs.PriceBuckets). Nil —
	// the default — records nothing and changes no behavior.
	Metrics *obs.Registry
}

// SimResult holds one simulated trajectory.
type SimResult struct {
	// Prices is π*(t) per slot.
	Prices []float64
	// Loads is L(t) per slot (before the slot's departures).
	Loads []float64
	// Accepted is N(t) per slot.
	Accepted []float64
}

// TotalRevenue sums the provider's per-slot revenue π*(t)·N(t) over
// the trajectory, in price-units × instance-slots (multiply by the
// slot length in hours for dollars). It is the revenue term the Eq. 1
// objective trades against utilization.
func (r SimResult) TotalRevenue() float64 {
	var s float64
	for i := range r.Prices {
		s += r.Prices[i] * r.Accepted[i]
	}
	return s
}

// MeanAccepted reports the average number of running instances per
// slot.
func (r SimResult) MeanAccepted() float64 {
	if len(r.Accepted) == 0 {
		return 0
	}
	var s float64
	for _, n := range r.Accepted {
		s += n
	}
	return s / float64(len(r.Accepted))
}

// Run simulates n slots (after warmup) with the given random source.
func (s Simulator) Run(n int, r *rand.Rand) (SimResult, error) {
	if err := s.Provider.Validate(); err != nil {
		return SimResult{}, err
	}
	if n <= 0 {
		return SimResult{}, fmt.Errorf("market: simulation length %d must be positive", n)
	}
	if s.Arrivals == nil {
		return SimResult{}, fmt.Errorf("market: simulator needs an arrival process")
	}
	load := s.InitialLoad
	if load <= 0 {
		lam, _ := s.Arrivals.MeanVar()
		load = s.Provider.EquilibriumLoad(lam)
		if math.IsNaN(load) || math.IsInf(load, 0) {
			return SimResult{}, fmt.Errorf("market: arrival mean %v gives no finite initial load; set InitialLoad", lam)
		}
	}
	res := SimResult{
		Prices:   make([]float64, 0, n),
		Loads:    make([]float64, 0, n),
		Accepted: make([]float64, 0, n),
	}
	var slots *obs.Counter
	var queueLen, accepted, price *obs.Histogram
	if s.Metrics != nil {
		slots = s.Metrics.Counter("market.slots")
		queueLen = s.Metrics.Histogram("market.queue_len", obs.LoadBuckets)
		accepted = s.Metrics.Histogram("market.accepted", obs.LoadBuckets)
		price = s.Metrics.Histogram("market.price_usd", obs.PriceBuckets)
	}
	total := s.Warmup + n
	for t := 0; t < total; t++ {
		step := s.Provider.Step(load, s.Arrivals.Next(r))
		if t >= s.Warmup {
			res.Prices = append(res.Prices, step.Price)
			res.Loads = append(res.Loads, load)
			res.Accepted = append(res.Accepted, step.Accepted)
			if s.Metrics != nil {
				slots.Inc()
				queueLen.Observe(load)
				accepted.Observe(step.Accepted)
				price.Observe(step.Price)
			}
		}
		load = step.NextLoad
	}
	return res, nil
}

// EquilibriumPrices draws n i.i.d. equilibrium spot prices
// π(t) = clamp(h(Λ(t))) (Prop. 2): the generative model the paper
// fits to Amazon's history and the one the bidding strategies assume.
func EquilibriumPrices(p Provider, proc arrivals.Process, n int, r *rand.Rand) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("market: price count %d must be positive", n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.H(proc.Next(r))
	}
	return out, nil
}
