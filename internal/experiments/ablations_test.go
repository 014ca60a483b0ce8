package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/trace"
)

func TestAblationBeta(t *testing.T) {
	res, err := AblationBeta(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// §4.1: higher β ⇒ lower price and more accepted bids at the
	// same load.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Beta <= res.Rows[i-1].Beta {
			t.Fatal("β not increasing")
		}
		if res.Rows[i].Price > res.Rows[i-1].Price+1e-12 {
			t.Errorf("price rose with β: %v → %v", res.Rows[i-1].Price, res.Rows[i].Price)
		}
		if res.Rows[i].Accepted < res.Rows[i-1].Accepted-1e-9 {
			t.Errorf("accepted fell with β: %v → %v", res.Rows[i-1].Accepted, res.Rows[i].Accepted)
		}
	}
	// The equilibrium price mean drops as utilization gains weight.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.EqMean >= first.EqMean {
		t.Errorf("raising β did not lower the equilibrium mean: %v → %v", first.EqMean, last.EqMean)
	}
	if !strings.Contains(res.Render(), "β scale") {
		t.Error("render missing columns")
	}
}

func TestAblationRecovery(t *testing.T) {
	res, err := AblationRecovery(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Bids are non-decreasing in t_r while feasible.
	prevBid := 0.0
	feasibleSeen := 0
	for _, row := range res.Rows {
		if !row.Feasible {
			continue
		}
		feasibleSeen++
		if row.Bid < prevBid-1e-9 {
			t.Errorf("bid fell with larger t_r: %v after %v", row.Bid, prevBid)
		}
		prevBid = row.Bid
	}
	if feasibleSeen < 4 {
		t.Errorf("only %d feasible rows", feasibleSeen)
	}
	// Eq. 14's minimum acceptance probability kicks in past t_k and
	// grows toward 1.
	last := res.Rows[len(res.Rows)-1]
	if last.MinAcceptProb < 0.7 {
		t.Errorf("20-minute recovery min F(p) = %v", last.MinAcceptProb)
	}
	if !strings.Contains(res.Render(), "min F(p)") {
		t.Error("render missing columns")
	}
}

func TestAblationDwell(t *testing.T) {
	res, err := AblationDwell(Opts{Seed: 1, Runs: 6, Days: 63})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The DESIGN.md stickiness claim: i.i.d. prices (dwell 1) break
	// the Prop. 4 reliability result; realistic dwell restores it.
	iid := res.Rows[0]
	if iid.DwellSlots != 1 {
		t.Fatal("first row should be dwell 1")
	}
	if iid.OneTimeFailures < iid.Runs/3 {
		t.Errorf("i.i.d. prices failed only %d/%d one-time runs — expected ≫ 0", iid.OneTimeFailures, iid.Runs)
	}
	sticky := res.Rows[len(res.Rows)-1]
	if sticky.OneTimeFailures > iid.OneTimeFailures {
		t.Errorf("stickiness did not reduce failures: %d vs %d", sticky.OneTimeFailures, iid.OneTimeFailures)
	}
	// Persistent interruptions also drop with stickiness.
	if sticky.MeanInterruptions > iid.MeanInterruptions {
		t.Errorf("interruptions rose with dwell: %v vs %v", sticky.MeanInterruptions, iid.MeanInterruptions)
	}
	if !strings.Contains(res.Render(), "one-time failures") {
		t.Error("render missing columns")
	}
}

func TestAblationWorkers(t *testing.T) {
	res, err := AblationWorkers(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Completion shrinks monotonically with M.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Completion > res.Rows[i-1].Completion {
			t.Fatalf("completion grew at M=%d", res.Rows[i].Workers)
		}
	}
	// §6.1's cheaper-condition t_o < (M−1)t_r is strict: it first
	// holds at M = 4 for t_o = 60s, t_r = 30s ((4−1)·30 > 60).
	for _, row := range res.Rows {
		want := row.Workers >= 4
		if row.CheaperOK != want {
			t.Errorf("M=%d: cheaper condition = %v, want %v", row.Workers, row.CheaperOK, want)
		}
	}
	if !strings.Contains(res.Render(), "speedup") {
		t.Error("render missing columns")
	}
}

func TestAblationCollective(t *testing.T) {
	res, err := AblationCollective(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// §8: with no optimizers the provider prices below p* (the bid
	// wins); as the optimizing share grows the best-response price
	// climbs (weakly) toward the mass point.
	if !res.Rows[0].BidStillWins {
		t.Error("lone optimizer should win at share 0")
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].ProviderPrice < res.Rows[i-1].ProviderPrice-1e-6 {
			t.Errorf("provider price fell as optimizer share grew: %v → %v",
				res.Rows[i-1].ProviderPrice, res.Rows[i].ProviderPrice)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if last.ProviderPrice < res.UserBid-1e-3 {
		t.Errorf("at 95%% optimizers the price %v should reach the mass point %v",
			last.ProviderPrice, res.UserBid)
	}
	if !strings.Contains(res.Render(), "optimizer share") {
		t.Error("render missing columns")
	}
}

func TestForecastEval(t *testing.T) {
	res, err := ForecastEval(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// §5's claim: at a half-day horizon every predictor's RMSE is
	// within a whisker of the unconditional σ (no usable signal),
	// while one-slot-ahead forecasts do much better.
	for _, row := range res.Rows {
		switch row.HorizonSlots {
		case 1:
			if row.Predictor == "naive" && row.RMSEOverSigma > 0.6 {
				t.Errorf("naive 1-slot RMSE/σ = %v, expected strong short-range signal", row.RMSEOverSigma)
			}
		case 144:
			if row.RMSEOverSigma < 0.75 {
				t.Errorf("%s half-day RMSE/σ = %v — §5 expects ≈1", row.Predictor, row.RMSEOverSigma)
			}
		}
	}
	if !strings.Contains(res.Render(), "RMSE/σ") {
		t.Error("render missing columns")
	}
}

// TestAblationBilling checks what the hourly meter does to a bill.
// On-demand partial hours round up, so on-demand never bills less
// hourly. A spot hour is billed at its first slot's price: at seed 1
// and six runs, rises within the billed hours outweigh the falls and
// both spot rows bill more hourly than per slot. On the same runs'
// traces made flat within each billed hour, the meters agree.
func TestAblationBilling(t *testing.T) {
	o := Opts{Seed: 1, Runs: 6, Days: 63}
	res, err := AblationBilling(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Strategy == "on-demand" {
			if row.Ratio < 1.0-1e-9 {
				t.Errorf("on-demand: hourly/per-slot = %v < 1", row.Ratio)
			}
		} else if !(row.Ratio > 1) {
			t.Errorf("%s: hourly/per-slot = %v, want > 1 at seed 1, six runs", row.Strategy, row.Ratio)
		}
		if row.PerSlotCost <= 0 || row.HourlyCost <= 0 {
			t.Errorf("%s: non-positive costs %v / %v", row.Strategy, row.PerSlotCost, row.HourlyCost)
		}
	}
	if !strings.Contains(res.Render(), "hourly/per-slot") {
		t.Error("render missing columns")
	}

	// Flatten each billed hour from the job's first billed slot, the
	// slot after submission, to that slot's price. The history, and so
	// every bid, is unchanged. A relaunch starts its billed hour
	// mid-hour, so only uninterrupted jobs count.
	start := historySlots + 1
	checked := 0
	for run := 0; run < o.Runs; run++ {
		tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: o.Days, Seed: o.Seed + int64(run)*7919})
		if err != nil {
			t.Fatal(err)
		}
		perHour := int(tr.Grid.SlotsPerHour())
		prices := slices.Clone(tr.Prices)
		for i := start; i < len(prices); i++ {
			prices[i] = prices[i-(i-start)%perHour]
		}
		flat, err := trace.New(tr.Type, tr.Grid, prices)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []arm{oneTime, persistent30} {
			s, err := runBilled(flat, a, cloud.PerSlot)
			if err != nil {
				t.Fatal(err)
			}
			h, err := runBilled(flat, a, cloud.Hourly)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Outcome.Completed || s.Outcome.Interruptions > 0 {
				continue
			}
			checked++
			if r := h.Outcome.Cost / s.Outcome.Cost; math.Abs(r-1) > 1e-9 {
				t.Errorf("run %d %s on an hour-flat trace: hourly/per-slot = %v, want 1", run, a.name, r)
			}
		}
	}
	t.Logf("%d uninterrupted spot jobs billed alike on the hour-flat traces", checked)
	if checked == 0 {
		t.Fatal("no spot job ran uninterrupted on the hour-flat traces")
	}
}
