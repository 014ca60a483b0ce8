package experiments

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// BillingRow compares one strategy's measured cost under the paper's
// per-slot billing model and Amazon's real hourly rules (rate locked
// at the top of the hour, provider-terminated partial hours free).
type BillingRow struct {
	Strategy string
	// PerSlotCost and HourlyCost are mean measured costs over Runs.
	PerSlotCost, HourlyCost float64
	// Ratio is HourlyCost / PerSlotCost.
	Ratio float64
	Runs  int
}

// BillingResult is the billing-model ablation.
type BillingResult struct{ Rows []BillingRow }

// AblationBilling quantifies how far the paper's per-slot cost model
// (the continuous limit behind Eq. 9/13) sits from Amazon's actual
// 2014 billing: identical traces, identical bids, different meters.
// The per-slot bill does not bound the hourly one for spot strategies.
// Each hour is billed at its first slot's price, which costs more than
// per-slot when the price rises within the hour and less when it
// falls; the refund rule forgives a partial hour the provider ends.
// The two meters agree on a spot job only where the price is flat
// within each billed hour. On-demand partial hours round up, so there
// hourly/per-slot ≥ 1.
func AblationBilling(o Opts) (BillingResult, error) {
	o = o.withDefaults()
	var res BillingResult
	for _, a := range []arm{oneTime, persistent30, {name: "on-demand", strat: strategy.OnDemand{}}} {
		var perSlot, hourly float64
		var n int
		for run := 0; run < o.Runs; run++ {
			seed := o.Seed + int64(run)*7919
			tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: o.Days, Seed: seed})
			if err != nil {
				return BillingResult{}, err
			}
			s, err := runBilled(tr, a, cloud.PerSlot)
			if err != nil {
				return BillingResult{}, err
			}
			h, err := runBilled(tr, a, cloud.Hourly)
			if err != nil {
				return BillingResult{}, err
			}
			if !s.Outcome.Completed || !h.Outcome.Completed {
				continue // identical traces: both or neither, typically
			}
			perSlot += s.Outcome.Cost
			hourly += h.Outcome.Cost
			n++
		}
		if n == 0 {
			return BillingResult{}, fmt.Errorf("experiments: no completed billing pairs for %s", a.name)
		}
		row := BillingRow{
			Strategy:    a.name,
			PerSlotCost: perSlot / float64(n),
			HourlyCost:  hourly / float64(n),
			Runs:        n,
		}
		if row.PerSlotCost > 0 {
			row.Ratio = row.HourlyCost / row.PerSlotCost
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runBilled runs the arm's job on a fresh region over the trace with
// the given billing mode, submitting at the end of the two-month
// history.
func runBilled(tr *trace.Trace, a arm, mode cloud.BillingMode) (client.Report, error) {
	region, err := cloud.NewRegion(tr)
	if err != nil {
		return client.Report{}, err
	}
	if err := region.SetBilling(mode); err != nil {
		return client.Report{}, err
	}
	cl, err := client.New(region)
	if err != nil {
		return client.Report{}, err
	}
	if err := cl.Skip(historySlots); err != nil {
		return client.Report{}, err
	}
	return cl.RunStrategy(a.spec("bill", tr.Type), a.strat)
}

// Render returns the ablation as an aligned text table.
func (r BillingResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Strategy, f4(row.PerSlotCost), f4(row.HourlyCost),
			fmt.Sprintf("%.3f", row.Ratio), fmt.Sprintf("%d", row.Runs),
		}
	}
	return Table([]string{"strategy", "per-slot cost", "hourly cost", "hourly/per-slot", "runs"}, rows)
}
