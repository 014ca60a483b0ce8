package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/instances"
	"repro/internal/invariant"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/timeslot"
)

// chaosRates is the fault-intensity sweep: the chaos.Uniform knob from
// fault-free to a very bad day on EC2.
var chaosRates = []float64{0, 0.02, 0.05, 0.10}

// chaosArms are the bidding strategies stressed by the sweep. Every
// arm's job takes t_r = 30 s, the one-time arm's included.
var chaosArms = []arm{
	{name: "one-time", strat: strategy.OneTime{}, recovery: timeslot.Seconds(30)},
	persistent30,
	percentile90,
}

// ChaosRow is one (strategy, fault-rate) cell: how much of the
// paper's ≈90% saving survives a degraded market interface.
type ChaosRow struct {
	Strategy string
	// Rate is the chaos.Uniform fault intensity.
	Rate float64
	// Completed counts runs that finished all their work (on spot or
	// after an on-demand fallback); Errored counts runs the client
	// could not even start (e.g. no price history and no cached ECDF).
	Completed, Errored, Runs int
	// MeanCost and MeanCompletion average over completed runs.
	MeanCost       float64
	MeanCompletion timeslot.Hours
	// CostDegradation and CompletionDegradation compare against the
	// same strategy's fault-free (rate 0) row: +0.25 = 25% worse.
	CostDegradation, CompletionDegradation float64
	// FellBack counts runs that degraded to on-demand; StaleRuns
	// counts runs priced from a stale ECDF; Interruptions and
	// CheckpointFailures sum over completed runs.
	FellBack, StaleRuns, Interruptions, CheckpointFailures int
	// Faults is the total number of injected faults across all runs.
	Faults int
}

// ChaosResult is the degradation table of the chaos experiment.
type ChaosResult struct{ Rows []ChaosRow }

// runChaos runs the job under one strategy on a fresh chaos-armed
// region and hands back the run's member state for the tournament's
// invariant audit. Runs are deterministic per seed: region trace,
// submission offset, and the entire fault sequence all derive from it.
func runChaos(spec job.Spec, strat strategy.Strategy, rate float64, seed int64, offset, days int, met *obs.Registry, rec *event.Recorder) (client.Report, chaos.Stats, *invariant.MemberState, error) {
	region, err := regionFor([]instances.Type{spec.Type}, seed, days)
	if err != nil {
		return client.Report{}, chaos.Stats{}, nil, err
	}
	cl, err := client.New(region)
	if err != nil {
		return client.Report{}, chaos.Stats{}, nil, err
	}
	if met != nil {
		cl.SetMetrics(met)
	}
	if rec != nil {
		cl.SetTrace(rec)
	}
	inj, err := chaos.New(chaos.Uniform(rate, seed*31+1))
	if err != nil {
		return client.Report{}, chaos.Stats{}, nil, err
	}
	if err := inj.Arm(region, cl.Volume); err != nil {
		return client.Report{}, chaos.Stats{}, nil, err
	}
	if err := cl.Skip(historySlots + offset); err != nil {
		return client.Report{}, chaos.Stats{}, nil, err
	}
	member := &invariant.MemberState{ID: region.ID(), Region: region, Volume: cl.Volume, Metrics: cl.Metrics}
	rep, err := cl.RunStrategy(spec, strat)
	return rep, inj.Stats(), member, err
}

// chaosCell is one (strategy, fault rate) cell of a chaos grid. A run's
// trace seed and submit offset derive from the strategy index si and
// the run alone, so every strategy faces the same traces and offsets at
// every rate: the rate knob is isolated.
type chaosCell struct {
	si   int
	rate float64
}

// gridRun is one run of a chaos grid cell. err is set when the client
// could not run the job at all: a data point, not an experiment
// failure.
type gridRun struct {
	rep    client.Report
	faults chaos.Stats
	err    error
}

// runChaosGrid runs o.Runs seeded runs of every cell through runChaos,
// every (cell, run) pair in one worker pool; jobFor returns the job and
// a strategy for one run of a cell. Run 0 of every cell feeds o.Trace,
// serialized in cell order by the scheduler (see Opts.Trace), and
// audit, when non-nil, runs right after it in the same worker. Each run
// records into its own registry, and the registries merge into
// o.Metrics in cell-major run order once the pool drains, so the
// aggregate does not depend on worker scheduling.
func runChaosGrid(o Opts, cells []chaosCell, jobFor func(chaosCell) (job.Spec, strategy.Strategy, error), audit func(ci int, seed int64, offset int)) ([][]gridRun, error) {
	results := make([][]gridRun, len(cells))
	regs := make([][]*obs.Registry, len(cells))
	offs := make([][]int, len(cells))
	for ci, c := range cells {
		results[ci] = make([]gridRun, o.Runs)
		regs[ci] = make([]*obs.Registry, o.Runs)
		offs[ci] = offsets(o.Runs, o.Seed+int64(c.si))
	}
	var traced func(int) bool
	if o.Trace != nil {
		traced = func(int) bool { return true }
	}
	err := sched.Grid(len(cells), o.Runs, traced, func(ci, run int) error {
		c := cells[ci]
		spec, strat, err := jobFor(c)
		if err != nil {
			return err
		}
		var met *obs.Registry
		if o.Metrics != nil {
			met = obs.New()
			regs[ci][run] = met
		}
		var rec *event.Recorder
		if run == 0 {
			rec = o.Trace
		}
		seed := o.Seed + int64(c.si)*2003 + int64(run)*7919
		rep, st, _, err := runChaos(spec, strat, c.rate, seed, offs[ci][run], o.Days, met, rec)
		results[ci][run] = gridRun{rep: rep, faults: st, err: err}
		if run == 0 && audit != nil {
			audit(ci, seed, offs[ci][0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		for _, cellRegs := range regs {
			for _, reg := range cellRegs {
				if err := o.Metrics.Merge(reg.Snapshot()); err != nil {
					return nil, fmt.Errorf("experiments: merging chaos run metrics: %w", err)
				}
			}
		}
	}
	return results, nil
}

// ChaosSweep reruns the §7.1 single-job experiment under injected
// faults: transient API errors, degraded price telemetry, capacity
// outages, delayed out-bid notices, and lost checkpoints, at
// increasing intensity. It reports how cost and completion time
// degrade versus the fault-free baseline for each strategy — the
// robustness question the paper could not ask of real EC2.
func ChaosSweep(o Opts) (ChaosResult, error) {
	o = o.withDefaults()
	typ := instances.R3XLarge

	var cells []chaosCell
	for _, rate := range chaosRates {
		for si := range chaosArms {
			cells = append(cells, chaosCell{si: si, rate: rate})
		}
	}
	results, err := runChaosGrid(o, cells, func(c chaosCell) (job.Spec, strategy.Strategy, error) {
		a := chaosArms[c.si]
		return a.spec("chaos-job", typ), a.strat, nil
	}, nil)
	if err != nil {
		return ChaosResult{}, err
	}

	var res ChaosResult
	baseline := map[string]ChaosRow{} // strategy → rate-0 row
	for ci, cell := range cells {
		row := ChaosRow{Strategy: chaosArms[cell.si].name, Rate: cell.rate, Runs: o.Runs}
		var cost, compl float64
		for _, r := range results[ci] {
			row.Faults += r.faults.Total()
			if r.err != nil {
				row.Errored++
				continue
			}
			if r.rep.Telemetry.FellBackOnDemand {
				row.FellBack++
			}
			if r.rep.Telemetry.Stale {
				row.StaleRuns++
			}
			if !r.rep.Outcome.Completed {
				continue
			}
			row.Completed++
			cost += r.rep.Outcome.Cost
			compl += float64(r.rep.Outcome.Completion)
			row.Interruptions += r.rep.Outcome.Interruptions
			row.CheckpointFailures += r.rep.Outcome.CheckpointFailures
		}
		if row.Completed > 0 {
			row.MeanCost = cost / float64(row.Completed)
			row.MeanCompletion = timeslot.Hours(compl / float64(row.Completed))
		}
		o.Metrics.Counter("experiments.chaos.runs").Add(int64(row.Runs))
		o.Metrics.Counter("experiments.chaos.completed").Add(int64(row.Completed))
		o.Metrics.Counter("experiments.chaos.errored").Add(int64(row.Errored))
		if cell.rate == 0 {
			if row.Completed == 0 {
				return ChaosResult{}, fmt.Errorf("experiments: fault-free %s baseline never completed", row.Strategy)
			}
			baseline[row.Strategy] = row
		} else if base, ok := baseline[row.Strategy]; ok && row.Completed > 0 {
			row.CostDegradation = row.MeanCost/base.MeanCost - 1
			row.CompletionDegradation = float64(row.MeanCompletion)/float64(base.MeanCompletion) - 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the (strategy, rate) row, or false.
func (r ChaosResult) Row(strategy string, rate float64) (ChaosRow, bool) {
	for _, row := range r.Rows {
		if row.Strategy == strategy && row.Rate == rate {
			return row, true
		}
	}
	return ChaosRow{}, false
}

// Render returns the degradation table as aligned text.
func (r ChaosResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Strategy, fmt.Sprintf("%.2f", row.Rate),
			fmt.Sprintf("%d/%d", row.Completed, row.Runs),
			f4(row.MeanCost), f2(float64(row.MeanCompletion)),
			pct(row.CostDegradation), pct(row.CompletionDegradation),
			fmt.Sprintf("%d", row.FellBack), fmt.Sprintf("%d", row.StaleRuns),
			fmt.Sprintf("%d", row.CheckpointFailures), fmt.Sprintf("%d", row.Faults),
		}
	}
	return Table([]string{"strategy", "rate", "completed", "cost", "compl(h)", "Δcost", "Δcompl", "od-fallback", "stale", "ckpt-lost", "faults"}, rows)
}
