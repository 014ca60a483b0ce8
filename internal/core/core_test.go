package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// analyticMarket returns the r3.xlarge market with the analytic
// equilibrium price distribution (smooth F_π).
func analyticMarket(t *testing.T) Market {
	t.Helper()
	c, err := trace.CalibrationFor(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := c.PriceDist()
	if err != nil {
		t.Fatal(err)
	}
	return Market{Price: pd, OnDemand: c.Provider.POnDemand, MinPrice: c.Provider.PMin}
}

// empiricalMarket returns the r3.xlarge market with a two-month
// synthetic trace ECDF (step-function F_π) — the form a real client
// uses.
func empiricalMarket(t *testing.T) Market {
	t.Helper()
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e, err := tr.ECDF(0)
	if err != nil {
		t.Fatal(err)
	}
	spec := instances.MustLookup(instances.R3XLarge)
	return Market{Price: e, OnDemand: spec.OnDemand}
}

func bothMarkets(t *testing.T) map[string]Market {
	return map[string]Market{
		"analytic":  analyticMarket(t),
		"empirical": empiricalMarket(t),
	}
}

var oneHourJob = Job{Exec: 1}

func TestMarketNormalization(t *testing.T) {
	if _, err := (Market{}).OneTimeBid(oneHourJob); err == nil {
		t.Error("nil price distribution accepted")
	}
	u, _ := dist.NewUniform(0.01, 0.1)
	if _, err := (Market{Price: u, OnDemand: 0.005}).OneTimeBid(oneHourJob); err == nil {
		t.Error("on-demand below floor accepted")
	}
	if _, err := (Market{Price: u, OnDemand: 0.2, Slot: -1}).OneTimeBid(oneHourJob); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := (Market{Price: u, OnDemand: 0.2, MinPrice: -0.1}).OneTimeBid(oneHourJob); err == nil {
		t.Error("negative floor accepted")
	}
}

func TestJobValidate(t *testing.T) {
	if err := (Job{Exec: 1, Recovery: timeslot.Seconds(30)}).Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	bad := []Job{
		{Exec: 0},
		{Exec: -1},
		{Exec: 1, Recovery: -1},
		{Exec: 0.001, Recovery: 0.01}, // recovery ≥ exec
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad job %d accepted: %+v", i, j)
		}
	}
}

func TestOneTimeBidPercentile(t *testing.T) {
	for name, m := range bothMarkets(t) {
		bid, err := m.OneTimeBid(oneHourJob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// t_s = 1h, t_k = 5min ⇒ F(p*) ≥ 1 − 1/12 = 0.91667.
		if bid.AcceptProb < 1-1.0/12.0 {
			t.Errorf("%s: F(p*) = %v < 11/12", name, bid.AcceptProb)
		}
		// The bid respects the price bounds.
		if bid.Price < 0.03-1e-12 || bid.Price > 0.35 {
			t.Errorf("%s: bid %v out of range", name, bid.Price)
		}
		// Expected uninterrupted run covers the execution time (Eq. 8).
		run, err := m.ExpectedUninterruptedRun(bid.Price)
		if err != nil {
			t.Fatal(err)
		}
		if float64(run) < float64(oneHourJob.Exec)-1e-9 {
			t.Errorf("%s: uninterrupted run %v below t_s", name, float64(run))
		}
		// Deep discount vs on-demand (the paper's ≈90% claim).
		if bid.Savings() < 0.8 {
			t.Errorf("%s: savings %v below 80%%", name, bid.Savings())
		}
		if !bid.BeatsOnDemand {
			t.Errorf("%s: optimal one-time bid loses to on-demand", name)
		}
	}
}

func TestOneTimeBidShortJobBidsFloor(t *testing.T) {
	m := analyticMarket(t)
	bid, err := m.OneTimeBid(Job{Exec: timeslot.DefaultSlot}) // exactly one slot
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bid.Price-m.MinPrice) > 1e-12 {
		t.Errorf("one-slot job bid %v, want floor %v", bid.Price, m.MinPrice)
	}
}

func TestOneTimeBidMonotoneInExecTime(t *testing.T) {
	m := analyticMarket(t)
	prev := 0.0
	for _, ts := range []float64{0.25, 0.5, 1, 2, 4, 8, 24} {
		bid, err := m.OneTimeBid(Job{Exec: timeslot.Hours(ts)})
		if err != nil {
			t.Fatal(err)
		}
		if bid.Price < prev-1e-12 {
			t.Fatalf("bid decreased at t_s = %v", ts)
		}
		prev = bid.Price
	}
}

// TestOneTimeBidInfeasibleBeyondOnDemand: a price distribution
// reaching above π̄ makes long jobs unservable without interruption,
// and OneTimeBid says so with ErrInfeasible, as PersistentBid does for
// Eq. 14: on a uniform distribution, and on a 12-day r3.xlarge ECDF
// (seed 3) with every third price at 0.5, above π̄ = 0.35, for a
// 24-hour job.
func TestOneTimeBidInfeasibleBeyondOnDemand(t *testing.T) {
	u, _ := dist.NewUniform(0.1, 1.0)
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spiked := tr.Clone()
	for i := 0; i < spiked.Len(); i += 3 {
		spiked.Prices[i] = 0.5
	}
	ecdf, err := spiked.ECDF(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    Market
		job  Job
	}{
		{"uniform", Market{Price: u, OnDemand: 0.5}, Job{Exec: 100}},
		{"spiked trace", Market{Price: ecdf, OnDemand: instances.MustLookup(instances.R3XLarge).OnDemand}, Job{Exec: 24}},
	} {
		if _, err := c.m.OneTimeBid(c.job); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: error %v, want one wrapping ErrInfeasible", c.name, err)
		}
	}
}

func TestEvalOneTimeBelowSupport(t *testing.T) {
	m := analyticMarket(t)
	bid, err := m.EvalOneTime(0.001, oneHourJob)
	if err != nil {
		t.Fatal(err)
	}
	if bid.AcceptProb != 0 {
		t.Errorf("AcceptProb = %v", bid.AcceptProb)
	}
	if bid.ExpectedSpot != 0.001 {
		t.Errorf("ExpectedSpot fallback = %v", bid.ExpectedSpot)
	}
}

func TestExpectedUninterruptedRun(t *testing.T) {
	u, _ := dist.NewUniform(0, 1)
	m := Market{Price: u, OnDemand: 2}
	// F(0.5) = 0.5 ⇒ expected run = 2 slots.
	run, err := m.ExpectedUninterruptedRun(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(run)-2*float64(timeslot.DefaultSlot)) > 1e-12 {
		t.Errorf("run = %v", float64(run))
	}
	// F(p) = 1 ⇒ infinite.
	run, err = m.ExpectedUninterruptedRun(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(run), 1) {
		t.Errorf("run at F=1: %v", float64(run))
	}
}

func TestSavingsZeroBaseline(t *testing.T) {
	if (Bid{}).Savings() != 0 {
		t.Error("Savings with zero baseline should be 0")
	}
}

func TestQuantileAtLeastOnECDF(t *testing.T) {
	e, err := dist.NewEmpirical([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.05, 0.31, 0.5, 0.77, 0.9167, 0.999} {
		p := quantileAtLeast(e, q, 100)
		if e.CDF(p) < q {
			t.Errorf("q=%v: CDF(%v) = %v < q", q, p, e.CDF(p))
		}
		// Minimality: one sample lower must undershoot.
		if p > 1 {
			below := p - 1
			if e.CDF(below) >= q {
				t.Errorf("q=%v: %v not minimal", q, p)
			}
		}
	}
	if got := quantileAtLeast(e, 0, 100); got != 1 {
		t.Errorf("q=0 → %v, want support low", got)
	}
}
