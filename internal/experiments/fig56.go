package experiments

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/lanes"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// A §7.1 single-instance run is a deterministic function of its price
// trace and its bid (DESIGN.md §2), so Figures 5 and 6 build no region
// and no client. Each (type, run) cell takes its memoized trace, builds
// the price monitor's window at the submit slot once, prices every arm
// there with the decider the client would call, and runs the arms as
// lanes of one engine from the submit slot. The client path stays the
// oracle: TestCellArmsMatchClient replays every arm through client.New
// + Skip + RunStrategy and requires identical reports.

// execHours is t_s of every §7.1 job: one hour.
const execHours = timeslot.Hours(1)

// arm is one strategy under test on a one-hour job: the package's one
// name for a strategy. Clean-path arms run as lanes through cell.run;
// arms that need the object graph (faults, billing modes) run through
// client.RunStrategy.
type arm struct {
	// name labels the arm's row.
	name string
	// strat is the decider the client calls to price the arm.
	strat strategy.Strategy
	// recovery is the job's t_r.
	recovery timeslot.Hours
}

// spec is the arm's job as the client runs it.
func (a arm) spec(id string, typ instances.Type) job.Spec {
	return job.Spec{ID: id, Type: typ, Exec: execHours, Recovery: a.recovery}
}

var (
	// oneTime is the Prop. 4 arm: Figure 5's measured bar and Figure
	// 6's baseline.
	oneTime = arm{name: "one-time", strat: strategy.OneTime{}}
	// persistent30 and percentile90 are Figure 6 arms that the
	// ablations and the chaos sweep run too.
	persistent30 = arm{name: "persistent-30", strat: strategy.Persistent{}, recovery: timeslot.Seconds(30)}
	percentile90 = arm{name: "percentile-90", strat: strategy.Percentile{Q: 90, Kind: cloud.Persistent}, recovery: timeslot.Seconds(30)}
)

// fig6Arms are the Fig. 6 comparison arms, in row order.
var fig6Arms = []arm{
	{name: "persistent-10", strat: strategy.Persistent{}, recovery: timeslot.Seconds(10)},
	persistent30,
	percentile90,
}

// cell is one (type, run) cell of the §7.1 sweep, set up at its submit
// slot: the run's price trace and the market view the client's price
// monitor serves there on a clean region.
type cell struct {
	typ    instances.Type
	tr     *trace.Trace
	submit int
	win    *dist.WindowedECDF
	market core.Market
}

// cellWindows is a free list of the cells' price-monitor windows,
// ~460 KB each once PartialMean has built its prefix sums. A cell reads
// its window only while its step runs: reports and decisions keep
// core.Bid values, never the window, and Fill plus the lazy rebuilds
// overwrite every field a query reads. So sweepCells returns each
// window when its cell's step returns, and a later cell refills it. A
// window enters the list only when the cell that took it out or built
// it returns, so the list never holds more windows than cells ran at
// once; and unlike a sync.Pool, which a GC empties, it keeps them from
// one sweep to the next.
var cellWindows struct {
	sync.Mutex
	free []*dist.WindowedECDF
}

// sweepCells runs step on every (type, run) cell of the §7.1 sweep
// through one worker pool. A cell's trace seed and its submit offset
// into the day after the two-month history are those the client path
// used, so every cell sees the same prices and submits at the same
// slot.
func sweepCells(o Opts, step func(ti, run int, c *cell) error) error {
	types := instances.Table3Types()
	cellOffs := make([][]int, len(types))
	for ti := range types {
		cellOffs[ti] = offsets(o.Runs, o.Seed+int64(ti))
	}
	return sched.Grid(len(types), o.Runs, nil, func(ti, run int) error {
		seed := o.Seed + int64(ti)*1013 + int64(run)*7919
		c, err := newCell(types[ti], trace.GenOptions{Days: o.Days, Seed: seed}, historySlots+cellOffs[ti][run])
		if err != nil {
			return err
		}
		defer c.release()
		return step(ti, run, c)
	})
}

// newCell takes the memoized trace the generator options describe and
// builds the client's clean-path F_π estimate at the submit slot: the
// two-month window Region.PriceHistory returns there, Filled into a
// windowed ECDF sized as the price monitor sizes it. The window comes
// from cellWindows when the one last returned there has that size.
func newCell(typ instances.Type, gen trace.GenOptions, submit int) (*cell, error) {
	spec, err := instances.Lookup(typ)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Generate(typ, gen)
	if err != nil {
		return nil, err
	}
	c := &cell{typ: typ, tr: tr, submit: submit}
	hist, err := c.history(client.DefaultHistoryWindow)
	if err != nil {
		return nil, err
	}
	capacity := max(min(tr.Grid.CeilSlots(client.DefaultHistoryWindow), tr.Len()), 1)
	var win *dist.WindowedECDF
	cellWindows.Lock()
	if n := len(cellWindows.free); n > 0 {
		win = cellWindows.free[n-1]
		cellWindows.free[n-1] = nil
		cellWindows.free = cellWindows.free[:n-1]
	}
	cellWindows.Unlock()
	if win == nil || win.Cap() != capacity {
		if win, err = dist.NewWindowedECDF(capacity, 0); err != nil {
			return nil, err
		}
	}
	if err := win.Fill(hist.Prices); err != nil {
		return nil, err
	}
	c.win = win
	c.market = core.Market{Price: win, OnDemand: spec.OnDemand, Slot: tr.Grid.Slot}
	return c, nil
}

// release returns the cell's window to cellWindows. The cell's market
// view is unusable afterwards.
func (c *cell) release() {
	cellWindows.Lock()
	cellWindows.free = append(cellWindows.free, c.win)
	cellWindows.Unlock()
	c.win, c.market.Price = nil, nil
}

// history returns what Region.PriceHistory(typ, h) returns at the
// submit slot: the last h hours of prices up to and including it.
func (c *cell) history(h timeslot.Hours) (*trace.Trace, error) {
	to := c.submit + 1
	return c.tr.Window(max(to-c.tr.Grid.CeilSlots(h), 0), to)
}

// bestOffline is Figure 5's retrospective arm: a one-time request at
// the best offline price over the last 10 hours.
func (c *cell) bestOffline() (arm, error) {
	hist, err := c.history(timeslot.Hours(10))
	if err != nil {
		return arm{}, err
	}
	best, err := hist.BestOfflinePrice(execHours)
	if err != nil {
		return arm{}, err
	}
	return arm{name: "best-offline", strat: strategy.FixedBid{Label: "best-offline", Price: best, Kind: cloud.OneTime}}, nil
}

// run prices each arm on the cell's market view and runs the arms as
// lanes of one engine from the submit slot. Each report carries what
// the client's RunStrategy reports on a clean region: the strategy's
// name, the submitted bid, the analytic view at that bid and the
// lane's outcome. A bid that is not positive, where the client would
// fall back to on-demand, makes lanes.NewEngine return an error.
func (c *cell) run(arms ...arm) ([]client.Report, error) {
	reps := make([]client.Report, len(arms))
	ls := make([]lanes.Lane, len(arms))
	for i, a := range arms {
		job := core.Job{Exec: execHours, Recovery: a.recovery}
		d, err := a.strat.Decide(strategy.Observation{Market: c.market, Job: job, Slot: c.submit, Spot: c.tr.At(c.submit)})
		if err != nil {
			return nil, err
		}
		// As in RunStrategy, the submitted bid overrides the analytic
		// view's price.
		analytic := d.Analytic
		if d.Price > 0 && analytic.Price != d.Price {
			analytic.Price = d.Price
		}
		kind := lanes.KindOneTime
		if d.Kind == cloud.Persistent {
			kind = lanes.KindPersistent
		}
		ls[i] = lanes.Lane{Kind: kind, Bid: analytic.Price, Start: c.submit, Exec: job.Exec, Recovery: job.Recovery}
		reps[i] = client.Report{Strategy: a.strat.Name(), BidPrice: analytic.Price, Analytic: analytic}
	}
	e, err := lanes.NewEngine([]lanes.Market{{Type: c.typ, Prices: c.tr.Prices}}, ls)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s cell at slot %d: %w", c.typ, c.submit, err)
	}
	if _, err := e.Run(); err != nil {
		return nil, err
	}
	for i := range reps {
		reps[i].Outcome = e.Outcome(i)
	}
	return reps, nil
}

// Fig5Row is one instance type of Figure 5: one-time spot vs
// on-demand cost for a one-hour job, averaged over Runs repetitions.
type Fig5Row struct {
	Type instances.Type
	// AnalyticCost is the model's expected cost at the Prop. 4 bid.
	AnalyticCost float64
	// MeasuredCost is the mean billed cost across completed runs.
	MeasuredCost float64
	// OnDemandCost is the π̄ baseline for the same job.
	OnDemandCost float64
	// Savings is 1 − measured/on-demand (the paper: up to 91%).
	Savings float64
	// Interrupted counts one-time runs that were out-bid (the paper
	// observed none).
	Interrupted int
	// BestOfflineCost is the mean cost under the retrospective
	// baseline's bid, counting only its completed runs.
	BestOfflineCost float64
	// BestOfflineFailed counts baseline runs terminated early — the
	// §7.1 observation that 10 hours of history underbids the future.
	BestOfflineFailed int
	// Runs is the repetition count.
	Runs int
}

// Fig5Result is the Figure 5 reproduction.
type Fig5Result struct{ Rows []Fig5Row }

// Figure5 reruns the §7.1 one-time experiments: ten one-hour jobs per
// type at random times of day, billed on the simulated cloud.
func Figure5(o Opts) (Fig5Result, error) {
	o = o.withDefaults()
	types := instances.Table3Types()
	// Cells are independent; every (type, run) pair goes through one
	// shared worker pool, with aggregation in cell order afterwards.
	type runResult struct {
		rep, bo client.Report
	}
	results := make([][]runResult, len(types))
	for ti := range types {
		results[ti] = make([]runResult, o.Runs)
	}
	err := sweepCells(o, func(ti, run int, c *cell) error {
		bo, err := c.bestOffline()
		if err != nil {
			return err
		}
		reps, err := c.run(oneTime, bo)
		if err != nil {
			return err
		}
		results[ti][run] = runResult{rep: reps[0], bo: reps[1]}
		return nil
	})
	if err != nil {
		return Fig5Result{}, err
	}
	var res Fig5Result
	for ti, typ := range types {
		row := Fig5Row{Type: typ, Runs: o.Runs}
		var measured, analytic, offline float64
		var completed, offlineDone int
		for _, r := range results[ti] {
			if r.rep.Outcome.Completed {
				completed++
				measured += r.rep.Outcome.Cost
				analytic += r.rep.Analytic.ExpectedCost
			} else {
				row.Interrupted++
			}
			if r.bo.Outcome.Completed {
				offlineDone++
				offline += r.bo.Outcome.Cost
			} else {
				row.BestOfflineFailed++
			}
		}
		if completed == 0 {
			return Fig5Result{}, errors.New("experiments: every one-time run was interrupted")
		}
		spec := instances.MustLookup(typ)
		row.MeasuredCost = measured / float64(completed)
		row.AnalyticCost = analytic / float64(completed)
		row.OnDemandCost = spec.OnDemand // one-hour job
		row.Savings = 1 - row.MeasuredCost/row.OnDemandCost
		if offlineDone > 0 {
			row.BestOfflineCost = offline / float64(offlineDone)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render returns the result as an aligned text table.
func (r Fig5Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			string(row.Type), f4(row.AnalyticCost), f4(row.MeasuredCost),
			f4(row.OnDemandCost), pct(row.Savings),
			fmt.Sprintf("%d/%d", row.Interrupted, row.Runs),
			f4(row.BestOfflineCost),
			fmt.Sprintf("%d/%d", row.BestOfflineFailed, row.Runs),
		}
	}
	return Table([]string{"type", "analytic", "measured", "on-demand", "savings", "interrupted", "best-offline", "bo-failed"}, rows)
}

// Fig6Row is one (type, strategy) cell of Figure 6: percentage
// differences of a persistent-style strategy versus the one-time
// baseline on the same traces.
type Fig6Row struct {
	Type     instances.Type
	Strategy string
	// BidPrice is the strategy's mean bid.
	BidPrice float64
	// PriceDiff is the mean % difference in price paid per running
	// hour (Fig. 6a; negative = cheaper per hour).
	PriceDiff float64
	// CompletionDiff is the mean % difference in completion time
	// (Fig. 6b; positive = slower).
	CompletionDiff float64
	// CostDiff is the mean % difference in total job cost (Fig. 6c;
	// negative = cheaper).
	CostDiff float64
	// Interruptions is the mean interruption count per run.
	Interruptions float64
	// Runs counts the paired repetitions that completed.
	Runs int
}

// Fig6Result is the Figure 6 reproduction.
type Fig6Result struct{ Rows []Fig6Row }

// Figure6 reruns the §7.1 persistent-vs-one-time comparison: for each
// type and strategy, paired runs on identical traces, reporting the
// percentage differences of Fig. 6(a–c).
func Figure6(o Opts) (Fig6Result, error) {
	o = o.withDefaults()
	types := instances.Table3Types()
	// pair is one cell's one-time base and, when the base completed,
	// its arms in fig6Arms order.
	type pair struct {
		base client.Report
		arms []client.Report
	}
	pairs := make([][]pair, len(types))
	for ti := range types {
		pairs[ti] = make([]pair, o.Runs)
	}
	err := sweepCells(o, func(ti, run int, c *cell) error {
		base, err := c.run(oneTime)
		if err != nil {
			return err
		}
		p := pair{base: base[0]}
		// The paper's baseline never failed; a cell whose base did is
		// skipped, and its arms are never priced.
		if p.base.Outcome.Completed {
			if p.arms, err = c.run(fig6Arms...); err != nil {
				return err
			}
		}
		pairs[ti][run] = p
		return nil
	})
	if err != nil {
		return Fig6Result{}, err
	}
	var res Fig6Result
	for ti, typ := range types {
		for ai, a := range fig6Arms {
			var bid, price, compl, cost, inter float64
			var n int
			for _, p := range pairs[ti] {
				if p.arms == nil || !p.arms[ai].Outcome.Completed {
					continue
				}
				base, rep := p.base.Outcome, p.arms[ai]
				n++
				bid += rep.BidPrice
				price += rep.Outcome.PricePerRunHour/base.PricePerRunHour - 1
				compl += float64(rep.Outcome.Completion)/float64(base.Completion) - 1
				cost += rep.Outcome.Cost/base.Cost - 1
				inter += float64(rep.Outcome.Interruptions)
			}
			if n == 0 {
				return Fig6Result{}, fmt.Errorf("experiments: no completed pairs for %s/%s", typ, a.name)
			}
			fn := float64(n)
			res.Rows = append(res.Rows, Fig6Row{
				Type:           typ,
				Strategy:       a.name,
				BidPrice:       bid / fn,
				PriceDiff:      price / fn,
				CompletionDiff: compl / fn,
				CostDiff:       cost / fn,
				Interruptions:  inter / fn,
				Runs:           n,
			})
		}
	}
	return res, nil
}

// Row returns the (type, strategy) row, or false.
func (r Fig6Result) Row(typ instances.Type, strategy string) (Fig6Row, bool) {
	for _, row := range r.Rows {
		if row.Type == typ && row.Strategy == strategy {
			return row, true
		}
	}
	return Fig6Row{}, false
}

// Render returns the result as an aligned text table.
func (r Fig6Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			string(row.Type), row.Strategy, f4(row.BidPrice),
			pct(row.PriceDiff), pct(row.CompletionDiff), pct(row.CostDiff),
			f2(row.Interruptions), fmt.Sprintf("%d", row.Runs),
		}
	}
	return Table([]string{"type", "strategy", "bid", "Δprice/h", "Δcompletion", "Δcost", "interruptions", "runs"}, rows)
}
