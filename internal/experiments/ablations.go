package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/market"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// The ablations exercise the design choices §8 discusses and the
// model boundaries DESIGN.md documents: the provider's utilization
// weight β, the job's interruptibility t_r (Eq. 14's feasibility
// boundary), the price-stickiness assumption behind the §7.1
// reliability result, the worker count M (Eq. 17–18's crossover
// conditions), and the collective-bidding feedback of §8.

// BetaRow is one step of the utilization-weight sweep.
type BetaRow struct {
	// BetaFactor scales the calibrated β.
	BetaFactor float64
	Beta       float64
	// Price is the optimal spot price at the equilibrium load.
	Price float64
	// Accepted is the number of accepted bids at that price.
	Accepted float64
	// EqMean is the equilibrium price distribution's mean.
	EqMean float64
}

// BetaSweepResult is the provider-objective ablation.
type BetaSweepResult struct{ Rows []BetaRow }

// AblationBeta sweeps the provider's utilization weight: §4.1 claims
// more weight on utilization (higher β) lowers the spot price and
// accepts more bids.
func AblationBeta(o Opts) (BetaSweepResult, error) {
	o = o.withDefaults()
	cal, err := trace.CalibrationFor(instances.R3XLarge)
	if err != nil {
		return BetaSweepResult{}, err
	}
	// Hold the demand fixed — the same arrival mixture and the same
	// load — and vary only the provider's objective weight; that is
	// the §4.1 ceteris-paribus claim. (Re-deriving Λ_min per β would
	// pin the price floor back to π̲ by construction and invert the
	// effect.)
	arr, err := cal.ArrivalDist()
	if err != nil {
		return BetaSweepResult{}, err
	}
	baseLoad := cal.Provider.EquilibriumLoad(arr.Mean())
	var res BetaSweepResult
	for _, factor := range []float64{0.5, 0.75, 1, 1.5, 2, 4} {
		p := cal.Provider
		p.Beta = cal.Provider.Beta * factor
		if err := p.Validate(); err != nil {
			return BetaSweepResult{}, err
		}
		price := p.OptimalPrice(baseLoad)
		row := BetaRow{
			BetaFactor: factor,
			Beta:       p.Beta,
			Price:      price,
			Accepted:   p.Accepted(baseLoad, price),
		}
		if eq, err := market.NewEquilibriumPriceDist(p, arr); err == nil {
			row.EqMean = eq.Mean()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render returns the sweep as an aligned text table.
func (r BetaSweepResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("×%.2f", row.BetaFactor), f4(row.Beta),
			f4(row.Price), f2(row.Accepted), f4(row.EqMean),
		}
	}
	return Table([]string{"β scale", "β", "π* @ eq load", "accepted", "eq mean π"}, rows)
}

// RecoveryRow is one step of the interruptibility sweep.
type RecoveryRow struct {
	// Recovery is t_r.
	Recovery timeslot.Hours
	// Feasible reports whether any bid satisfies Eq. 14.
	Feasible bool
	// Bid, Cost, Completion describe the optimal persistent bid when
	// feasible.
	Bid, Cost  float64
	Completion timeslot.Hours
	// MinAcceptProb is the Eq. 14 floor 1 − t_k/t_r on F(p) (zero
	// when t_r ≤ t_k).
	MinAcceptProb float64
}

// RecoverySweepResult is the t_r ablation.
type RecoverySweepResult struct{ Rows []RecoveryRow }

// AblationRecovery sweeps the recovery time across the Eq. 14
// boundary: bids rise with t_r, and beyond t_k the feasibility
// constraint forces high-acceptance bids.
func AblationRecovery(o Opts) (RecoverySweepResult, error) {
	o = o.withDefaults()
	cal, err := trace.CalibrationFor(instances.R3XLarge)
	if err != nil {
		return RecoverySweepResult{}, err
	}
	pd, err := cal.PriceDist()
	if err != nil {
		return RecoverySweepResult{}, err
	}
	m := core.Market{Price: pd, OnDemand: cal.Provider.POnDemand, MinPrice: cal.Provider.PMin}
	var res RecoverySweepResult
	for _, sec := range []float64{5, 10, 30, 60, 150, 300, 600, 1200} {
		tr := timeslot.Seconds(sec)
		row := RecoveryRow{Recovery: tr}
		if q := 1 - float64(timeslot.DefaultSlot)/float64(tr); q > 0 {
			row.MinAcceptProb = q
		}
		bid, err := m.PersistentBid(core.Job{Exec: 2, Recovery: tr})
		if err == nil {
			row.Feasible = true
			row.Bid = bid.Price
			row.Cost = bid.ExpectedCost
			row.Completion = bid.ExpectedCompletion
		} else if !errors.Is(err, core.ErrInfeasible) {
			return RecoverySweepResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render returns the sweep as an aligned text table.
func (r RecoverySweepResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		feas := "yes"
		bid, cost, compl := f4(row.Bid), f4(row.Cost), f2(float64(row.Completion))
		if !row.Feasible {
			feas, bid, cost, compl = "NO", "-", "-", "-"
		}
		rows[i] = []string{
			row.Recovery.String(), feas, fmt.Sprintf("%.3f", row.MinAcceptProb),
			bid, cost, compl,
		}
	}
	return Table([]string{"t_r", "feasible", "min F(p)", "bid", "cost", "completion(h)"}, rows)
}

// DwellRow is one step of the price-stickiness sweep.
type DwellRow struct {
	// DwellSlots is the mean price persistence.
	DwellSlots int
	// OneTimeFailures counts one-time runs interrupted before
	// finishing, out of Runs.
	OneTimeFailures int
	// MeanInterruptions is the persistent run's average interruption
	// count.
	MeanInterruptions float64
	Runs              int
}

// DwellSweepResult is the stickiness ablation.
type DwellSweepResult struct{ Rows []DwellRow }

// AblationDwell sweeps the generator's price dwell: it quantifies the
// DESIGN.md observation that the paper's zero-interruption §7.1
// result depends on price stickiness — under i.i.d. slot prices
// (dwell 1) the Prop. 4 bid fails a 1-hour job roughly two times in
// three. Each run is one §7.1 cell at the end of the two-month history
// whose one-time and persistent-30 arms run as lanes on the identical
// trace.
func AblationDwell(o Opts) (DwellSweepResult, error) {
	o = o.withDefaults()
	var res DwellSweepResult
	for _, dwell := range dwellSweep {
		row := DwellRow{DwellSlots: dwell, Runs: o.Runs}
		var interSum float64
		for run := 0; run < o.Runs; run++ {
			c, err := dwellCell(o, dwell, run)
			if err != nil {
				return DwellSweepResult{}, err
			}
			reps, err := c.run(oneTime, persistent30)
			c.release()
			if err != nil {
				return DwellSweepResult{}, err
			}
			if !reps[0].Outcome.Completed {
				row.OneTimeFailures++
			}
			interSum += float64(reps[1].Outcome.Interruptions)
		}
		row.MeanInterruptions = interSum / float64(o.Runs)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// dwellSweep is the price dwells AblationDwell sweeps, in slots.
var dwellSweep = []int{1, 3, 9, 18, 36}

// dwellCell is AblationDwell's cell for one run at one dwell: its own
// r3.xlarge trace, submitted at the end of the two-month history.
func dwellCell(o Opts, dwell, run int) (*cell, error) {
	seed := o.Seed + int64(run)*7919 + int64(dwell)*17
	return newCell(instances.R3XLarge, trace.GenOptions{Days: o.Days, Seed: seed, DwellSlots: dwell}, historySlots)
}

// Render returns the sweep as an aligned text table.
func (r DwellSweepResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d (%d min)", row.DwellSlots, row.DwellSlots*5),
			fmt.Sprintf("%d/%d", row.OneTimeFailures, row.Runs),
			f2(row.MeanInterruptions),
		}
	}
	return Table([]string{"dwell", "one-time failures", "persistent interruptions"}, rows)
}

// WorkersRow is one step of the worker-count sweep.
type WorkersRow struct {
	Workers int
	// Completion is the Eq. 18 parallel completion time.
	Completion timeslot.Hours
	// Cost is the Eq. 19 total expected cost.
	Cost float64
	// SpeedupOK marks §6.1's condition t_o < (M−1)·t_k/(1−F(p)).
	SpeedupOK bool
	// CheaperOK marks §6.1's condition t_o < (M−1)·t_r.
	CheaperOK bool
}

// WorkersSweepResult is the M ablation.
type WorkersSweepResult struct{ Rows []WorkersRow }

// AblationWorkers sweeps the slave count: completion shrinks ≈1/M
// while the §6.1 crossover conditions flip from false to true at
// small M.
func AblationWorkers(o Opts) (WorkersSweepResult, error) {
	o = o.withDefaults()
	cal, err := trace.CalibrationFor(instances.C34XL)
	if err != nil {
		return WorkersSweepResult{}, err
	}
	pd, err := cal.PriceDist()
	if err != nil {
		return WorkersSweepResult{}, err
	}
	m := core.Market{Price: pd, OnDemand: cal.Provider.POnDemand, MinPrice: cal.Provider.PMin}
	mrJob := core.MapReduceJob{Exec: 2, Recovery: timeslot.Seconds(30), Overhead: timeslot.Seconds(60)}
	var res WorkersSweepResult
	for _, workers := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		bid, err := m.SlaveBid(mrJob, workers)
		if err != nil {
			return WorkersSweepResult{}, err
		}
		speedup, err := m.ParallelSpeedup(bid.Price, mrJob, workers)
		if err != nil {
			return WorkersSweepResult{}, err
		}
		res.Rows = append(res.Rows, WorkersRow{
			Workers:    workers,
			Completion: bid.ExpectedCompletion,
			Cost:       bid.ExpectedCost,
			SpeedupOK:  speedup,
			CheaperOK:  float64(mrJob.Overhead) < float64(workers-1)*float64(mrJob.Recovery),
		})
	}
	return res, nil
}

// Render returns the sweep as an aligned text table.
func (r WorkersSweepResult) Render() string {
	rows := make([][]string, len(r.Rows))
	yn := map[bool]string{true: "yes", false: "no"}
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Workers),
			f2(float64(row.Completion)), f4(row.Cost),
			yn[row.SpeedupOK], yn[row.CheaperOK],
		}
	}
	return Table([]string{"M", "completion(h)", "cost", "speedup(§6.1)", "cheaper(§6.1)"}, rows)
}

// CollectiveRow is one step of the §8 collective-bidding feedback.
type CollectiveRow struct {
	// OptimizerShare is the fraction of load bidding exactly p*.
	OptimizerShare float64
	// ProviderPrice is the provider's best-response spot price.
	ProviderPrice float64
	// BidStillWins reports whether the original p* still clears that
	// price.
	BidStillWins bool
}

// CollectiveResult is the §8 feedback ablation.
type CollectiveResult struct {
	// UserBid is the individually optimal persistent bid p*.
	UserBid float64
	Rows    []CollectiveRow
}

// AblationCollective examines §8's "collective user behavior": as a
// growing share of bidders all submit the individually optimal p*,
// the provider's best-response price climbs toward (and onto) the
// mass point — the assumption that one user's bid does not move the
// price breaks down.
func AblationCollective(o Opts) (CollectiveResult, error) {
	o = o.withDefaults()
	cal, err := trace.CalibrationFor(instances.R3XLarge)
	if err != nil {
		return CollectiveResult{}, err
	}
	pd, err := cal.PriceDist()
	if err != nil {
		return CollectiveResult{}, err
	}
	m := core.Market{Price: pd, OnDemand: cal.Provider.POnDemand, MinPrice: cal.Provider.PMin}
	opt, err := m.PersistentBid(core.Job{Exec: 1, Recovery: timeslot.Seconds(30)})
	if err != nil {
		return CollectiveResult{}, err
	}
	res := CollectiveResult{UserBid: opt.Price}

	crowd, err := dist.NewUniform(cal.Provider.PMin, cal.Provider.POnDemand)
	if err != nil {
		return CollectiveResult{}, err
	}
	mass, err := dist.NewUniform(opt.Price-1e-6, opt.Price+1e-6)
	if err != nil {
		return CollectiveResult{}, err
	}
	// A demand level at which the uniform crowd alone prices *below*
	// p*: the §1.2 assumption (one bidder cannot move the price)
	// holds at share 0 and the sweep shows it eroding.
	load := cal.Provider.LoadForPrice(opt.Price * 0.94)
	for _, share := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.95} {
		bids := dist.Dist(crowd)
		if share > 0 {
			bids, err = dist.NewMixture([]dist.Dist{crowd, mass}, []float64{1 - share, share})
			if err != nil {
				return CollectiveResult{}, err
			}
		}
		price, err := cal.Provider.OptimalPriceForBids(load, bids)
		if err != nil {
			return CollectiveResult{}, err
		}
		res.Rows = append(res.Rows, CollectiveRow{
			OptimizerShare: share,
			ProviderPrice:  price,
			BidStillWins:   opt.Price >= price,
		})
	}
	return res, nil
}

// Render returns the feedback table.
func (r CollectiveResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		wins := "yes"
		if !row.BidStillWins {
			wins = "NO"
		}
		rows[i] = []string{
			fmt.Sprintf("%.0f%%", 100*row.OptimizerShare),
			f4(row.ProviderPrice), wins,
		}
	}
	return fmt.Sprintf("individually optimal bid p* = %s\n%s",
		f4(r.UserBid), Table([]string{"optimizer share", "provider best-response π*", "p* still wins"}, rows))
}
