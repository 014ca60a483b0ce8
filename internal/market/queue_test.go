package market

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/dist"
	"repro/internal/stats"
)

func TestStepBasics(t *testing.T) {
	p := r3xProvider()
	res := p.Step(100, 2)
	if res.Price != p.OptimalPrice(100) {
		t.Error("Step price != OptimalPrice")
	}
	if math.Abs(res.Accepted-p.Accepted(100, res.Price)) > 1e-12 {
		t.Error("Step accepted mismatch")
	}
	if math.Abs(res.Finished-p.Theta*res.Accepted) > 1e-12 {
		t.Error("Step finished mismatch")
	}
	want := 100 - res.Finished + 2
	if math.Abs(res.NextLoad-want) > 1e-12 {
		t.Errorf("NextLoad = %v, want %v", res.NextLoad, want)
	}
	// Negative inputs clamp to zero.
	if got := p.Step(-5, -1); got.NextLoad < 0 {
		t.Errorf("negative inputs produced negative load %v", got.NextLoad)
	}
}

func TestNextLoadNonNegative(t *testing.T) {
	// θ ≤ 1 and N ≤ L ensure L(t+1) ≥ 0 (paper §4.2).
	p := r3xProvider()
	p.Theta = 1
	for _, load := range []float64{0, 0.1, 1, 100} {
		if got := p.Step(load, 0); got.NextLoad < 0 {
			t.Errorf("load %v: next load %v negative", load, got.NextLoad)
		}
	}
}

func TestEquilibriumLoadIsFixedPoint(t *testing.T) {
	// Prop. 2: with constant arrivals λ and L at the equilibrium
	// load, the queue stays exactly in place and the price is h(λ).
	p := r3xProvider()
	for _, lam := range []float64{0.05, 0.5, 2} {
		leq := p.EquilibriumLoad(lam)
		res := p.Step(leq, lam)
		if math.Abs(res.NextLoad-leq) > 1e-6*leq {
			t.Errorf("λ=%v: L_eq=%v stepped to %v", lam, leq, res.NextLoad)
		}
		if math.Abs(res.Price-p.H(lam)) > 1e-6 {
			t.Errorf("λ=%v: price %v, want h(λ)=%v", lam, res.Price, p.H(lam))
		}
	}
}

func TestDriftExpectationMatchesMonteCarlo(t *testing.T) {
	p := r3xProvider()
	lamMin, err := p.ParetoArrivalMin()
	if err != nil {
		t.Fatal(err)
	}
	par, err := dist.NewPareto(5, lamMin)
	if err != nil {
		t.Fatal(err)
	}
	lam, sig := par.Mean(), par.Var()
	r := rand.New(rand.NewSource(21))
	for _, load := range []float64{1, 10, 50} {
		res := p.Step(load, 0)
		base := res.NextLoad // deterministic part: aL
		var sum float64
		n := 200000
		for i := 0; i < n; i++ {
			next := base + par.Sample(r)
			sum += 0.5*next*next - 0.5*load*load
		}
		mc := sum / float64(n)
		analytic := p.DriftExpectation(load, lam, sig)
		tol := 0.02 * math.Max(math.Abs(analytic), 1)
		if math.Abs(mc-analytic) > tol {
			t.Errorf("load %v: MC drift %v vs analytic %v", load, mc, analytic)
		}
	}
}

func TestDriftQuadBoundDominates(t *testing.T) {
	p := r3xProvider()
	lam, sig := 0.1, 0.01
	for _, load := range dist.Linspace(0, 500, 100) {
		drift := p.DriftExpectation(load, lam, sig)
		bound := p.DriftQuadBound(load, lam, sig)
		if drift > bound+1e-9 {
			t.Fatalf("load %v: drift %v exceeds quadratic bound %v", load, drift, bound)
		}
	}
}

func TestStabilityThreshold(t *testing.T) {
	p := r3xProvider()
	lam, sig := 0.1, 0.01
	thr := p.StabilityThreshold(lam, sig)
	if thr <= 0 {
		t.Fatalf("threshold %v", thr)
	}
	if b := p.DriftQuadBound(thr*1.01, lam, sig); b >= 0 {
		t.Errorf("bound above threshold = %v, want negative", b)
	}
	if b := p.DriftQuadBound(thr*0.5, lam, sig); b <= 0 {
		t.Errorf("bound below threshold = %v, want positive", b)
	}
	// Actual drift is negative above the threshold too.
	if d := p.DriftExpectation(thr*1.01, lam, sig); d >= 0 {
		t.Errorf("true drift above threshold = %v", d)
	}
}

func TestPaperDriftBoundShape(t *testing.T) {
	// The paper's linear bound decreases in L and is eventually
	// negative; we check shape, not domination (see DESIGN.md).
	p := r3xProvider()
	lam, sig := 0.1, 0.01
	b1 := p.PaperDriftBound(10, lam, sig)
	b2 := p.PaperDriftBound(1000, lam, sig)
	if b2 >= b1 {
		t.Error("paper bound not decreasing in L")
	}
	if p.PaperDriftBound(1e9, lam, sig) >= 0 {
		t.Error("paper bound never negative")
	}
}

func TestSimulatorStableQueue(t *testing.T) {
	// Prop. 1 in action: the time-averaged queue stays bounded and
	// the load hovers near the equilibrium load for λ.
	p := r3xProvider()
	lamMin, err := p.ParetoArrivalMin()
	if err != nil {
		t.Fatal(err)
	}
	par, err := dist.NewPareto(5, lamMin)
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulator{Provider: p, Arrivals: arrivals.NewIID(par), Warmup: 2000}
	res, err := sim.Run(20000, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Prices) != 20000 || len(res.Loads) != 20000 || len(res.Accepted) != 20000 {
		t.Fatalf("result lengths %d/%d/%d", len(res.Prices), len(res.Loads), len(res.Accepted))
	}
	meanLoad := stats.Mean(res.Loads)
	leq := p.EquilibriumLoad(par.Mean())
	if meanLoad > 3*leq || meanLoad < leq/3 {
		t.Errorf("mean load %v far from equilibrium %v", meanLoad, leq)
	}
	for _, l := range res.Loads {
		if l < 0 {
			t.Fatal("negative load")
		}
	}
	for _, price := range res.Prices {
		if price < p.PMin || price > p.POnDemand {
			t.Fatalf("price %v outside bounds", price)
		}
	}
}

func TestSimulatorStartsAtExplicitLoad(t *testing.T) {
	p := r3xProvider()
	sim := Simulator{Provider: p, Arrivals: arrivals.Deterministic{Volume: 0.5}, InitialLoad: 123}
	res, err := sim.Run(1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads[0] != 123 {
		t.Errorf("initial load %v, want 123", res.Loads[0])
	}
}

// TestSimulatorRejectsInfiniteArrivalMean: Pareto arrivals with shape
// 0.5 have no finite mean, so the default initial load, the
// equilibrium load for that mean, is not finite either. Run reports it
// instead of pricing every slot NaN; an explicit InitialLoad still
// runs.
func TestSimulatorRejectsInfiniteArrivalMean(t *testing.T) {
	p := r3xProvider()
	lamMin, err := p.ParetoArrivalMin()
	if err != nil {
		t.Fatal(err)
	}
	par, err := dist.NewPareto(0.5, lamMin)
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulator{Provider: p, Arrivals: arrivals.NewIID(par)}
	res, err := sim.Run(10, rand.New(rand.NewSource(3)))
	if err == nil || !strings.Contains(err.Error(), "arrival mean") {
		t.Fatalf("Run = %v prices, error %v; want an error naming the arrival mean", res.Prices, err)
	}
	sim.InitialLoad = 10
	res, err = sim.Run(10, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i, price := range res.Prices {
		if math.IsNaN(price) {
			t.Fatalf("explicit InitialLoad: price %d is NaN", i)
		}
	}
}

func TestSimulatorConvergesToEquilibriumUnderConstantArrivals(t *testing.T) {
	// Deterministic arrivals: L(t) → EquilibriumLoad(λ) from any start.
	p := r3xProvider()
	lam := 0.5
	sim := Simulator{Provider: p, Arrivals: arrivals.Deterministic{Volume: lam}, InitialLoad: 1000, Warmup: 50000}
	res, err := sim.Run(10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	leq := p.EquilibriumLoad(lam)
	if got := res.Loads[9]; math.Abs(got-leq)/leq > 0.01 {
		t.Errorf("converged load %v, want %v", got, leq)
	}
	if got := res.Prices[9]; math.Abs(got-p.H(lam)) > 1e-4 {
		t.Errorf("converged price %v, want h(λ)=%v", got, p.H(lam))
	}
}

func TestSimulatorErrors(t *testing.T) {
	p := r3xProvider()
	if _, err := (Simulator{Provider: p}).Run(10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("missing arrivals accepted")
	}
	sim := Simulator{Provider: p, Arrivals: arrivals.Deterministic{Volume: 1}}
	if _, err := sim.Run(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero length accepted")
	}
	bad := Simulator{Provider: Provider{}, Arrivals: arrivals.Deterministic{Volume: 1}}
	if _, err := bad.Run(10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid provider accepted")
	}
}

func TestEquilibriumPricesMatchDist(t *testing.T) {
	p := r3xProvider()
	lamMin, err := p.ParetoArrivalMin()
	if err != nil {
		t.Fatal(err)
	}
	par, err := dist.NewPareto(5, lamMin)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := NewEquilibriumPriceDist(p, par)
	if err != nil {
		t.Fatal(err)
	}
	prices, err := EquilibriumPrices(p, arrivals.NewIID(par), 100000, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dist.MeanVar(prices)
	if rel := math.Abs(m-eq.Mean()) / eq.Mean(); rel > 0.01 {
		t.Errorf("sampled mean %v vs dist mean %v", m, eq.Mean())
	}
	if _, err := EquilibriumPrices(p, arrivals.NewIID(par), 0, rand.New(rand.NewSource(5))); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := EquilibriumPrices(Provider{}, arrivals.NewIID(par), 5, rand.New(rand.NewSource(5))); err == nil {
		t.Error("invalid provider accepted")
	}
}

func TestFullSimApproximatesEquilibriumDistribution(t *testing.T) {
	// The full queue dynamics and the i.i.d. equilibrium model should
	// produce prices with comparable central tendency (the paper uses
	// the latter as its generative model for the former).
	p := r3xProvider()
	lamMin, err := p.ParetoArrivalMin()
	if err != nil {
		t.Fatal(err)
	}
	par, err := dist.NewPareto(5, lamMin)
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulator{Provider: p, Arrivals: arrivals.NewIID(par), Warmup: 5000}
	res, err := sim.Run(50000, rand.New(rand.NewSource(123)))
	if err != nil {
		t.Fatal(err)
	}
	eq, err := NewEquilibriumPriceDist(p, par)
	if err != nil {
		t.Fatal(err)
	}
	simMean := stats.Mean(res.Prices)
	if rel := math.Abs(simMean-eq.Mean()) / eq.Mean(); rel > 0.25 {
		t.Errorf("full-sim mean price %v vs equilibrium %v (rel %v)", simMean, eq.Mean(), rel)
	}
}

func TestSimResultAccounting(t *testing.T) {
	p := r3xProvider()
	sim := Simulator{Provider: p, Arrivals: arrivals.Deterministic{Volume: 0.5}, Warmup: 5000}
	res, err := sim.Run(100, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := range res.Prices {
		want += res.Prices[i] * res.Accepted[i]
	}
	if got := res.TotalRevenue(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalRevenue = %v, want %v", got, want)
	}
	if res.TotalRevenue() <= 0 {
		t.Error("revenue should be positive")
	}
	// At the deterministic equilibrium, mean accepted = θ-share
	// throughput: N = L·(π̄−h(λ))/(π̄−π̲) = λ/θ.
	wantN := 0.5 / p.Theta
	if got := res.MeanAccepted(); math.Abs(got-wantN)/wantN > 0.01 {
		t.Errorf("MeanAccepted = %v, want ≈ %v", got, wantN)
	}
	if (SimResult{}).MeanAccepted() != 0 {
		t.Error("empty result MeanAccepted should be 0")
	}
}
