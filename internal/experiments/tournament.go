package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/instances"
	"repro/internal/invariant"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/strategy"
	"repro/internal/timeslot"
)

// tournamentRates is the chaos grid every contender races across:
// fault-free plus two degraded market interfaces.
var tournamentRates = []float64{0, 0.02, 0.05}

// TournamentCell is one (strategy, chaos-rate) grid cell's aggregate.
type TournamentCell struct {
	Strategy string
	// Rate is the chaos.Uniform fault intensity.
	Rate float64
	// Completed counts runs that finished all their work; Errored
	// counts runs the client could not start at all.
	Completed, Errored, Runs int
	// MeanCost and MeanCompletion average over completed runs;
	// MeanSavings is 1 − cost/π̄·t_k against the flat on-demand bill.
	MeanCost       float64
	MeanSavings    float64
	MeanCompletion timeslot.Hours
	// Interruptions, Rebids and FellBack sum over completed runs.
	Interruptions, Rebids, FellBack int
	// Faults is the total number of injected faults across all runs.
	Faults int
	// Violations is what the invariant audit of the cell's seed-0 run
	// found (liveness incompletions are excused for strategies that
	// never promised completion).
	Violations []invariant.Violation
	// ReplayOK reports the seed-0 run reproduced byte-identically.
	ReplayOK bool
}

// TournamentRow is one strategy's league-table line, aggregated over
// the whole chaos grid.
type TournamentRow struct {
	// Rank is the 1-based league position.
	Rank     int
	Strategy string
	// Guarantees mirrors the registry's completion promise.
	Guarantees bool
	// Score ranks the league: mean savings × completion rate, so a
	// cheap strategy that rarely finishes cannot beat a slightly
	// dearer one that always does.
	Score float64
	// Savings is the mean saving versus the flat on-demand bill over
	// completed runs, across all grid cells.
	Savings float64
	// CompletionRate is completed runs over all runs, across the grid.
	CompletionRate float64
	MeanCost       float64
	MeanCompletion timeslot.Hours
	// Interruptions, Rebids, FellBack and Errored sum across the grid.
	Interruptions, Rebids, FellBack, Errored int
	// Violations is the total invariant-audit violation count.
	Violations int
	// ReplayOK reports every cell replayed byte-identically.
	ReplayOK bool
	// Cells holds the per-rate detail in tournamentRates order.
	Cells []TournamentCell
}

// TournamentResult is the ranked league table of the strategy
// tournament.
type TournamentResult struct {
	Rows []TournamentRow
	// OnDemandCost is the flat π̄·t_k bill savings are measured
	// against.
	OnDemandCost float64
}

// tournamentSpec is the job every contender runs.
func tournamentSpec(typ instances.Type) job.Spec {
	return job.Spec{ID: "tourney-job", Type: typ, Exec: 1, Recovery: timeslot.Seconds(30)}
}

// tournamentRun executes one job under one registered strategy on a
// fresh chaos-armed region — the tournament's counterpart of chaosRun,
// routed through the strategy engine. It hands back the substrate so
// the audit can inspect the final simulator state.
func tournamentRun(typ instances.Type, name string, rate float64, seed int64, offset, days int, met *obs.Registry, rec *event.Recorder) (client.Report, chaos.Stats, *invariant.MemberState, error) {
	region, err := regionFor([]instances.Type{typ}, seed, days)
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
	strat, err := strategy.New(name)
	if err != nil {
		return client.Report{}, chaos.Stats{}, nil, err
	}
	member := &invariant.MemberState{ID: region.ID(), Region: region, Volume: cl.Volume, Metrics: cl.Metrics}
	rep, err := cl.RunStrategy(tournamentSpec(typ), strat)
	return rep, inj.Stats(), member, err
}

// tournamentAudit runs a cell's seed-0 configuration once more on a
// private unbounded recorder, verifies the run against the invariant
// suite, and returns its determinism fingerprint.
func tournamentAudit(typ instances.Type, name string, rate float64, seed int64, offset, days int) (*invariant.RunResult, error) {
	rec := event.NewRecorder(event.Config{Unbounded: true})
	met := obs.New()
	rep, _, member, err := tournamentRun(typ, name, rate, seed, offset, days, met, rec)
	if err != nil {
		return nil, err
	}
	spec := tournamentSpec(typ)
	st := &invariant.RunState{
		Spec: spec,
		Params: invariant.Params{
			TripScore:        0.5,
			OutageTrip:       3,
			MigrationPenalty: timeslot.Seconds(60),
			Recovery:         spec.Recovery,
		},
		Members: []invariant.MemberState{*member},
		Report: fleet.Report{
			Spec:      spec,
			Outcome:   rep.Outcome,
			Escalated: rep.Telemetry.FellBackOnDemand,
			FleetCost: member.Region.TotalCost(),
		},
	}
	res := &invariant.RunResult{
		State:       st,
		Events:      rec.Events(),
		Fingerprint: invariant.Fingerprint(st, met, rec),
	}
	return res, nil
}

// auditViolations verifies one audited run, excusing liveness
// incompletions for strategies whose registry metadata never promised
// completion (one-time bids and the best-offline oracle legitimately
// die when out-bid).
func auditViolations(name string, res *invariant.RunResult) []invariant.Violation {
	vs := invariant.NewSuite(res.State.Params).Verify(res.Events, res.State)
	info, ok := strategy.Lookup(name)
	if ok && info.GuaranteesCompletion {
		return vs
	}
	kept := vs[:0]
	for _, v := range vs {
		if v.Checker == "job-liveness" && strings.Contains(v.Detail, "did not complete") {
			continue
		}
		kept = append(kept, v)
	}
	return kept
}

// Tournament races every registered bidding strategy across the chaos
// grid: each (strategy, rate) cell repeats o.Runs seeded runs through
// the strategy engine, the cell's seed-0 configuration is re-run on a
// private flight recorder and audited by the invariant suite (billing
// conservation, job liveness, checkpoint monotonicity, breaker
// legality), then re-run once more to verify byte-identical replay.
// The league table ranks strategies by savings × completion rate
// against the flat on-demand bill.
func Tournament(o Opts) (TournamentResult, error) {
	o = o.withDefaults()
	typ := instances.R3XLarge
	names := strategy.Names()
	spec := tournamentSpec(typ)
	ispec, err := instances.Lookup(typ)
	if err != nil {
		return TournamentResult{}, err
	}
	odCost := ispec.OnDemand * float64(spec.Exec)

	// Flatten the strategy×rate grid; the seed depends on the strategy
	// index and run only, so every strategy faces the same traces and
	// submission offsets at every rate — the rate knob is isolated.
	type cell struct {
		si   int
		name string
		rate float64
	}
	var cells []cell
	for si, name := range names {
		for _, rate := range tournamentRates {
			cells = append(cells, cell{si: si, name: name, rate: rate})
		}
	}
	type runResult struct {
		rep    client.Report
		faults chaos.Stats
		err    error
	}
	type auditResult struct {
		violations []invariant.Violation
		replayOK   bool
		err        error
	}
	results := make([][]runResult, len(cells))
	audits := make([]auditResult, len(cells))
	var regs [][]*obs.Registry
	if o.Metrics != nil {
		regs = make([][]*obs.Registry, len(cells))
	}
	cellOffs := make([][]int, len(cells))
	for ci, c := range cells {
		results[ci] = make([]runResult, o.Runs)
		cellOffs[ci] = offsets(o.Runs, o.Seed+int64(c.si))
		if regs != nil {
			regs[ci] = make([]*obs.Registry, o.Runs)
			for run := range regs[ci] {
				regs[ci][run] = obs.New()
			}
		}
	}
	var traced func(int) bool
	if o.Trace != nil {
		traced = func(int) bool { return true }
	}
	err = forEachCellRun(len(cells), o.Runs, traced, func(ci, run int) error {
		c := cells[ci]
		seed := o.Seed + int64(c.si)*2003 + int64(run)*7919
		var met *obs.Registry
		if regs != nil {
			met = regs[ci][run]
		}
		var rec *event.Recorder
		if run == 0 {
			rec = o.Trace
		}
		rep, st, _, err := tournamentRun(typ, c.name, c.rate, seed, cellOffs[ci][run], o.Days, met, rec)
		// A client that cannot start its job at all is a data point,
		// not an experiment failure.
		results[ci][run] = runResult{rep: rep, faults: st, err: err}
		if run != 0 {
			return nil
		}
		// Audit + replay: two more private-recorder runs of the same
		// seed. Their violations and fingerprints are deterministic, so
		// running them inside the worker is scheduling-independent.
		a, aerr := tournamentAudit(typ, c.name, c.rate, seed, cellOffs[ci][0], o.Days)
		if aerr != nil {
			audits[ci] = auditResult{err: aerr}
			return nil
		}
		b, berr := tournamentAudit(typ, c.name, c.rate, seed, cellOffs[ci][0], o.Days)
		if berr != nil {
			audits[ci] = auditResult{err: berr}
			return nil
		}
		vs := auditViolations(c.name, a)
		audits[ci] = auditResult{
			violations: vs,
			replayOK:   len(invariant.CompareReplay(a, b)) == 0,
		}
		return nil
	})
	if err != nil {
		return TournamentResult{}, err
	}

	rows := make(map[string]*TournamentRow, len(names))
	for _, name := range names {
		info, _ := strategy.Lookup(name)
		rows[name] = &TournamentRow{Strategy: name, Guarantees: info.GuaranteesCompletion, ReplayOK: true}
	}
	for ci, c := range cells {
		if regs != nil {
			for _, reg := range regs[ci] {
				if err := o.Metrics.Merge(reg.Snapshot()); err != nil {
					return TournamentResult{}, fmt.Errorf("experiments: merging tournament run metrics: %w", err)
				}
			}
		}
		cellRow := TournamentCell{Strategy: c.name, Rate: c.rate, Runs: o.Runs}
		var cost, compl, savings float64
		for _, r := range results[ci] {
			cellRow.Faults += r.faults.Total()
			if r.err != nil {
				cellRow.Errored++
				continue
			}
			if r.rep.Telemetry.FellBackOnDemand {
				cellRow.FellBack++
			}
			if !r.rep.Outcome.Completed {
				continue
			}
			cellRow.Completed++
			cost += r.rep.Outcome.Cost
			compl += float64(r.rep.Outcome.Completion)
			savings += 1 - r.rep.Outcome.Cost/odCost
			cellRow.Interruptions += r.rep.Outcome.Interruptions
			cellRow.Rebids += r.rep.Telemetry.Rebids
		}
		if cellRow.Completed > 0 {
			cellRow.MeanCost = cost / float64(cellRow.Completed)
			cellRow.MeanSavings = savings / float64(cellRow.Completed)
			cellRow.MeanCompletion = timeslot.Hours(compl / float64(cellRow.Completed))
		}
		au := audits[ci]
		if au.err != nil {
			// The audit could not even run (the seed-0 run errored):
			// surface it as a violation rather than silently passing.
			au.violations = []invariant.Violation{{Checker: "audit", Slot: -1,
				Detail: fmt.Sprintf("audit run failed: %v", au.err)}}
		}
		cellRow.Violations = au.violations
		cellRow.ReplayOK = au.err == nil && au.replayOK
		o.Metrics.Counter("experiments.tournament.runs").Add(int64(cellRow.Runs))
		o.Metrics.Counter("experiments.tournament.completed").Add(int64(cellRow.Completed))
		o.Metrics.Counter("experiments.tournament.violations").Add(int64(len(cellRow.Violations)))

		row := rows[c.name]
		row.Cells = append(row.Cells, cellRow)
		row.Errored += cellRow.Errored
		row.Interruptions += cellRow.Interruptions
		row.Rebids += cellRow.Rebids
		row.FellBack += cellRow.FellBack
		row.Violations += len(cellRow.Violations)
		row.ReplayOK = row.ReplayOK && cellRow.ReplayOK
	}

	var res TournamentResult
	res.OnDemandCost = odCost
	for _, name := range names {
		row := rows[name]
		var cost, compl, savings float64
		var completed, runs int
		for _, cellRow := range row.Cells {
			runs += cellRow.Runs
			completed += cellRow.Completed
			cost += cellRow.MeanCost * float64(cellRow.Completed)
			compl += float64(cellRow.MeanCompletion) * float64(cellRow.Completed)
			savings += cellRow.MeanSavings * float64(cellRow.Completed)
		}
		if completed > 0 {
			row.MeanCost = cost / float64(completed)
			row.Savings = savings / float64(completed)
			row.MeanCompletion = timeslot.Hours(compl / float64(completed))
		}
		if runs > 0 {
			row.CompletionRate = float64(completed) / float64(runs)
		}
		row.Score = row.Savings * row.CompletionRate
		res.Rows = append(res.Rows, *row)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		if res.Rows[i].Score != res.Rows[j].Score {
			return res.Rows[i].Score > res.Rows[j].Score
		}
		return res.Rows[i].Strategy < res.Rows[j].Strategy
	})
	for i := range res.Rows {
		res.Rows[i].Rank = i + 1
	}
	return res, nil
}

// Row returns the named strategy's league line, or false.
func (r TournamentResult) Row(name string) (TournamentRow, bool) {
	for _, row := range r.Rows {
		if row.Strategy == name {
			return row, true
		}
	}
	return TournamentRow{}, false
}

// Render returns the ranked league table as aligned text.
func (r TournamentResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		replay := "ok"
		if !row.ReplayOK {
			replay = "DIVERGED"
		}
		rows[i] = []string{
			fmt.Sprintf("%d", row.Rank), row.Strategy,
			fmt.Sprintf("%.3f", row.Score), pct(row.Savings),
			fmt.Sprintf("%.0f%%", 100*row.CompletionRate),
			f4(row.MeanCost), f2(float64(row.MeanCompletion)),
			fmt.Sprintf("%d", row.Interruptions), fmt.Sprintf("%d", row.Rebids),
			fmt.Sprintf("%d", row.FellBack),
			fmt.Sprintf("%d", row.Violations), replay,
		}
	}
	return Table([]string{"rank", "strategy", "score", "savings", "completed",
		"cost", "compl(h)", "intr", "rebids", "od-fallback", "violations", "replay"}, rows)
}
