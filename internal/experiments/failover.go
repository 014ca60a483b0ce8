package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/sched"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// failoverRegionCounts is the fleet-size axis of the sweep.
var failoverRegionCounts = []int{1, 2, 3}

// failoverRates is the region-outage axis: the per-slot probability
// that the job's home region (member 0) suffers a correlated
// region-wide outage. 1.0 is the forced outage of the acceptance
// criterion — the home region is down for the entire run.
var failoverRates = []float64{0, 0.01, 1.0}

// FailoverRow is one (regions, outage-rate) cell of the sweep.
type FailoverRow struct {
	// Regions is the fleet size.
	Regions int
	// Rate is the home region's per-slot region-outage probability.
	Rate float64
	// Completed counts runs whose job finished all its work (spot or
	// escalated); Lost counts runs where it did not; Errored counts
	// runs that failed outright.
	Completed, Lost, Errored, Runs int
	// MeanFleetCost averages the fleet's total bill (leaked slots
	// included) over completed runs; MeanCompletion the wall-clock time.
	MeanFleetCost  float64
	MeanCompletion timeslot.Hours
	// MeanOnDemand is the all-on-demand baseline cost measured on the
	// same traces and submission slots.
	MeanOnDemand float64
	// Savings is 1 − MeanFleetCost/MeanOnDemand over completed runs.
	Savings float64
	// Trips, Migrations, Escalations sum the fleet counters over runs.
	Trips, Migrations, Escalations int
}

// FailoverResult is the graceful-degradation table.
type FailoverResult struct{ Rows []FailoverRow }

// failoverSpec is the job every cell runs: the §7.1 single-job
// workload with a 30-second recovery.
func failoverSpec(typ instances.Type) job.Spec {
	return job.Spec{ID: "failover-job", Type: typ, Exec: 1, Recovery: timeslot.Seconds(30)}
}

// failoverScrape is the observability attachment of one instrumented
// failover run: a scraper over the fleet registry plus breaker-state
// and health-score step series per member, driven from the
// controller's OnSlot hook.
type failoverScrape struct {
	db     *tsdb.DB
	every  int
	labels tsdb.Labels
}

// failoverRun executes one fleet job: n regions with independent
// generated traces on a shared slot clock, the home region armed with
// a correlated region-outage chaos profile at the given rate, the
// siblings fault-free. It returns the fleet report plus the
// all-on-demand baseline cost measured on an identical home region.
// A non-nil scr attaches the tsdb scraper to the fleet's slot clock.
func failoverRun(n int, rate float64, seed int64, offset, days int, met *obs.Registry, rec *event.Recorder, scr *failoverScrape) (fleet.Report, float64, error) {
	typ := instances.R3XLarge
	spec := failoverSpec(typ)
	members := make([]fleet.Member, n)
	for i := 0; i < n; i++ {
		tr, err := trace.Generate(typ, trace.GenOptions{Days: days, Seed: seed + int64(i)*4099})
		if err != nil {
			return fleet.Report{}, 0, err
		}
		region, err := cloud.NewRegion(tr)
		if err != nil {
			return fleet.Report{}, 0, err
		}
		cl, err := client.New(region)
		if err != nil {
			return fleet.Report{}, 0, err
		}
		if i == 0 && rate > 0 {
			inj, err := chaos.New(chaos.Config{Seed: seed*31 + 1, RegionOutageRate: rate, RegionOutageSlots: 36})
			if err != nil {
				return fleet.Report{}, 0, err
			}
			if err := inj.Arm(region, cl.Volume); err != nil {
				return fleet.Report{}, 0, err
			}
		}
		members[i] = fleet.Member{ID: fmt.Sprintf("region-%d", i), Region: region, Client: cl}
	}
	cfg := fleet.Config{Metrics: met, Trace: rec}
	var ctl *fleet.Controller
	if scr != nil {
		scraper := tsdb.NewScraper(scr.db, tsdb.ScrapeConfig{
			Registry: met,
			Every:    scr.every,
			Labels:   scr.labels,
		})
		scraper.AddSource(func(slot int, app tsdb.Appender) {
			// ctl is assigned before the first Tick fires OnSlot.
			for i := range members {
				id := members[i].ID
				app("fleet.breaker", tsdb.L("region", id), float64(ctl.Breaker(id)))
				app("fleet.health", tsdb.L("region", id), ctl.Health(id))
			}
		})
		cfg.OnSlot = func(slot int) { scraper.Tick(slot) }
	}
	ctl, err := fleet.NewController(cfg, members...)
	if err != nil {
		return fleet.Report{}, 0, err
	}
	if err := ctl.Skip(historySlots + offset); err != nil {
		return fleet.Report{}, 0, err
	}
	rep, err := ctl.RunPersistent(spec)
	if err != nil {
		return fleet.Report{}, 0, err
	}

	// All-on-demand baseline: the same job on a pristine copy of the
	// home region's trace, submitted at the same slot.
	baseTr, err := trace.Generate(typ, trace.GenOptions{Days: days, Seed: seed})
	if err != nil {
		return fleet.Report{}, 0, err
	}
	baseRegion, err := cloud.NewRegion(baseTr)
	if err != nil {
		return fleet.Report{}, 0, err
	}
	baseCl, err := client.New(baseRegion)
	if err != nil {
		return fleet.Report{}, 0, err
	}
	if err := baseCl.Skip(historySlots + offset); err != nil {
		return fleet.Report{}, 0, err
	}
	baseRep, err := baseCl.RunOnDemand(spec)
	if err != nil {
		return fleet.Report{}, 0, err
	}
	return rep, baseRep.Outcome.Cost, nil
}

// FailoverSweep measures graceful degradation: persistent fleet jobs
// versus fleet size and home-region outage rate. The paper's client
// was chained to one region; the sweep quantifies what §3.2's
// "default to on-demand" playbook costs there (the 1-region column)
// and what cross-market failover recovers (the multi-region columns):
// under a forced home-region outage a ≥2-region fleet completes every
// job on spot capacity, strictly cheaper than all-on-demand.
func FailoverSweep(o Opts) (FailoverResult, error) {
	o = o.withDefaults()
	// Flatten the rate×fleet-size grid into one pool of (cell, run)
	// pairs; run 0 of each cell feeds the shared flight recorder,
	// serialized in cell order by the scheduler (see Opts.Trace).
	type failoverCell struct {
		rate float64
		ni   int
		n    int
	}
	var cells []failoverCell
	for _, rate := range failoverRates {
		for ni, n := range failoverRegionCounts {
			cells = append(cells, failoverCell{rate: rate, ni: ni, n: n})
		}
	}
	type runResult struct {
		rep  fleet.Report
		base float64
		met  *obs.Registry
		err  error
	}
	results := make([][]runResult, len(cells))
	cellOffs := make([][]int, len(cells))
	for ci, cell := range cells {
		results[ci] = make([]runResult, o.Runs)
		cellOffs[ci] = offsets(o.Runs, o.Seed+int64(cell.ni))
	}
	var traced func(int) bool
	if o.Trace != nil || o.TSDB != nil {
		// The shared recorder and the shared tsdb both need run-0s
		// serialized in cell order to stay deterministic.
		traced = func(int) bool { return true }
	}
	err := sched.Grid(len(cells), o.Runs, traced, func(ci, run int) error {
		cell := cells[ci]
		seed := o.Seed + int64(cell.ni)*2003 + int64(run)*7919
		met := obs.New()
		var rec *event.Recorder
		var scr *failoverScrape
		if run == 0 {
			rec = o.Trace
			if o.TSDB != nil {
				scr = &failoverScrape{db: o.TSDB, every: o.ScrapeEvery,
					labels: tsdb.L("rate", fmt.Sprintf("%g", cell.rate), "regions", fmt.Sprintf("%d", cell.n))}
			}
		}
		rep, base, err := failoverRun(cell.n, cell.rate, seed, cellOffs[ci][run], o.Days, met, rec, scr)
		if scr != nil && err == nil {
			// The per-cell outcome as point series at the submission
			// slot: fleet cost, on-demand baseline, and the savings
			// ratio the sweep's table reports.
			slot := historySlots + cellOffs[ci][run]
			o.TSDB.Append("failover.fleet_cost", scr.labels, slot, rep.FleetCost)
			o.TSDB.Append("failover.od_cost", scr.labels, slot, base)
			if base > 0 {
				o.TSDB.Append("failover.savings", scr.labels, slot, 1-rep.FleetCost/base)
			}
		}
		results[ci][run] = runResult{rep: rep, base: base, met: met, err: err}
		return nil
	})
	if err != nil {
		return FailoverResult{}, err
	}

	var res FailoverResult
	for ci, cell := range cells {
		row := FailoverRow{Regions: cell.n, Rate: cell.rate, Runs: o.Runs}
		var cost, base, compl float64
		for _, r := range results[ci] {
			if r.err != nil {
				row.Errored++
				continue
			}
			row.Trips += int(r.met.CounterValue("fleet.trips"))
			row.Migrations += int(r.met.CounterValue("fleet.migrations"))
			row.Escalations += int(r.met.CounterValue("fleet.escalations"))
			if o.Metrics != nil {
				if err := o.Metrics.Merge(r.met.Snapshot()); err != nil {
					return FailoverResult{}, fmt.Errorf("experiments: merging failover run metrics: %w", err)
				}
			}
			if !r.rep.Outcome.Completed {
				row.Lost++
				continue
			}
			row.Completed++
			cost += r.rep.FleetCost
			base += r.base
			compl += float64(r.rep.Outcome.Completion)
		}
		if row.Completed > 0 {
			row.MeanFleetCost = cost / float64(row.Completed)
			row.MeanOnDemand = base / float64(row.Completed)
			row.MeanCompletion = timeslot.Hours(compl / float64(row.Completed))
			if row.MeanOnDemand > 0 {
				row.Savings = 1 - row.MeanFleetCost/row.MeanOnDemand
			}
		}
		o.Metrics.Counter("experiments.failover.runs").Add(int64(row.Runs))
		o.Metrics.Counter("experiments.failover.completed").Add(int64(row.Completed))
		o.Metrics.Counter("experiments.failover.lost").Add(int64(row.Lost))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the (regions, rate) row, or false.
func (r FailoverResult) Row(regions int, rate float64) (FailoverRow, bool) {
	for _, row := range r.Rows {
		if row.Regions == regions && row.Rate == rate {
			return row, true
		}
	}
	return FailoverRow{}, false
}

// Render returns the graceful-degradation table as aligned text.
func (r FailoverResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Regions), fmt.Sprintf("%.2f", row.Rate),
			fmt.Sprintf("%d/%d", row.Completed, row.Runs),
			fmt.Sprintf("%d", row.Lost),
			f4(row.MeanFleetCost), f4(row.MeanOnDemand), pct(row.Savings),
			f2(float64(row.MeanCompletion)),
			fmt.Sprintf("%d", row.Trips), fmt.Sprintf("%d", row.Migrations),
			fmt.Sprintf("%d", row.Escalations),
		}
	}
	return Table([]string{"regions", "rate", "completed", "lost", "fleet-cost", "od-cost", "savings", "compl(h)", "trips", "migrations", "escalations"}, rows)
}
