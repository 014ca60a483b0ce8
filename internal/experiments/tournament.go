package experiments

import (
	"fmt"
	"sort"
	"strings"

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

// tournamentAudit runs a cell's seed-0 configuration once more on a
// private recorder, verifies the run against the invariant
// suite, and returns its determinism fingerprint.
func tournamentAudit(spec job.Spec, name string, rate float64, seed int64, offset, days int) (*invariant.RunResult, error) {
	strat, err := strategy.New(name)
	if err != nil {
		return nil, err
	}
	rec := event.NewRecorder()
	met := obs.New()
	rep, _, member, err := runChaos(spec, strat, rate, seed, offset, days, met, rec)
	if err != nil {
		return nil, err
	}
	st := &invariant.RunState{
		Spec:    spec,
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
	vs := invariant.NewSuite().Verify(res.Events, res.State)
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

	var cells []chaosCell
	for si := range names {
		for _, rate := range tournamentRates {
			cells = append(cells, chaosCell{si: si, rate: rate})
		}
	}
	type auditResult struct {
		violations []invariant.Violation
		replayOK   bool
		err        error
	}
	audits := make([]auditResult, len(cells))
	results, err := runChaosGrid(o, cells, func(c chaosCell) (job.Spec, strategy.Strategy, error) {
		strat, err := strategy.New(names[c.si])
		return spec, strat, err
	}, func(ci int, seed int64, offset int) {
		// Audit + replay: two more private-recorder runs of the same
		// seed. Their violations and fingerprints are deterministic, so
		// running them inside the worker is scheduling-independent.
		name, rate := names[cells[ci].si], cells[ci].rate
		a, err := tournamentAudit(spec, name, rate, seed, offset, o.Days)
		if err != nil {
			audits[ci] = auditResult{err: err}
			return
		}
		b, err := tournamentAudit(spec, name, rate, seed, offset, o.Days)
		if err != nil {
			audits[ci] = auditResult{err: err}
			return
		}
		audits[ci] = auditResult{
			violations: auditViolations(name, a),
			replayOK:   len(invariant.CompareReplay(a, b)) == 0,
		}
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
		name := names[c.si]
		cellRow := TournamentCell{Strategy: name, Rate: c.rate, Runs: o.Runs}
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

		row := rows[name]
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
