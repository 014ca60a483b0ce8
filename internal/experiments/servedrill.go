package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/obs/tsdb"
	"repro/internal/serve"
)

// ServeDrill runs the serving-layer chaos drill end to end: the
// degradation-aware control plane over a live simulated market under
// the canonical fault schedule (feed stall, build failures, clock
// skew, request burst, delayed swap, price spike), then audits the
// stream against every serving invariant and replays the run to prove
// byte-identical determinism. It is the experiments-facing twin of the
// e2e test in internal/serve — the test asserts, this reports.

// ServeTierSpan is one maximal run of slots spent in a single ladder
// tier.
type ServeTierSpan struct {
	From, To int
	Tier     string
}

// ServeDrillResult is the rendered drill outcome.
type ServeDrillResult struct {
	// Slots is the drill length.
	Slots int
	// Spans is the ladder timeline, compressed to tier runs.
	Spans []ServeTierSpan
	// Outcomes is the request ledger, one row per outcome that
	// occurred, in outcome order.
	Outcomes []ServeOutcomeRow
	// Total is the ledger sum.
	Total uint64
	// Versions is the number of table versions published.
	Versions int
	// Checkers lists the serving invariants verified.
	Checkers []string
	// Violations are the invariant breaches (empty on a healthy run).
	Violations []invariant.Violation
	// ReplayIdentical is the run-pair determinism verdict;
	// Fingerprint is the audit export's FNV-1a hash.
	ReplayIdentical bool
	Fingerprint     uint64
	// Alerts is the SLO engine's transition log (empty unless the run
	// was given a tsdb via Opts.TSDB).
	Alerts []tsdb.Alert
}

// ServeOutcomeRow is one ledger line.
type ServeOutcomeRow struct {
	Outcome string
	Count   uint64
}

// ServeDrillRun executes the drill and its replay and verifies the
// invariants.
func ServeDrillRun(o Opts) (ServeDrillResult, error) {
	o = o.withDefaults()
	run := func(metered bool) (*serve.DrillResult, error) {
		inj, err := chaos.NewServeSchedule(chaos.DrillSchedule)
		if err != nil {
			return nil, err
		}
		cfg := serve.DrillConfig{Seed: o.Seed, Faults: inj}
		if metered {
			cfg.Metrics = o.Metrics
			// Only the primary run scrapes: the shared tsdb would see
			// the replay as a second, slot-regressing pass.
			cfg.TSDB = o.TSDB
			cfg.Events = o.Trace
		}
		return serve.Drill(cfg)
	}
	// Only the primary run records metrics: the replay exists to prove
	// determinism, not to double every counter.
	res, err := run(true)
	if err != nil {
		return ServeDrillResult{}, err
	}
	replay, err := run(false)
	if err != nil {
		return ServeDrillResult{}, err
	}

	out := ServeDrillResult{
		Slots:           res.Slots,
		Total:           res.Total,
		Checkers:        invariant.ServeCheckers(),
		Fingerprint:     res.Fingerprint,
		ReplayIdentical: res.Fingerprint == replay.Fingerprint,
		Alerts:          res.Alerts,
	}
	for _, m := range res.Published {
		out.Versions += len(m)
	}
	for slot, tier := range res.TierBySlot {
		name := tier.String()
		if n := len(out.Spans); n > 0 && out.Spans[n-1].Tier == name {
			out.Spans[n-1].To = slot
			continue
		}
		out.Spans = append(out.Spans, ServeTierSpan{From: slot, To: slot, Tier: name})
	}
	for o := serve.Outcome(0); o < serve.NumOutcomes; o++ {
		if n := res.Counts[o]; n > 0 {
			out.Outcomes = append(out.Outcomes, ServeOutcomeRow{Outcome: o.String(), Count: n})
		}
	}

	st := &invariant.ServeRunState{
		FreshForSlots: res.FreshForSlots,
		StaleForSlots: res.StaleForSlots,
		Total:         res.Total,
		Counts:        res.Counts,
		Published:     res.Published,
	}
	out.Violations = invariant.VerifyServe(res.Records, st)
	out.Violations = append(out.Violations, invariant.CompareServeReplay(res.AuditJSONL, replay.AuditJSONL)...)
	sort.SliceStable(out.Violations, func(i, j int) bool {
		return out.Violations[i].Checker < out.Violations[j].Checker
	})
	return out, nil
}

// Render returns the drill report: the ladder timeline, the request
// ledger, and the invariant verdict.
func (r ServeDrillResult) Render() string {
	var b strings.Builder

	rows := make([][]string, len(r.Spans))
	for i, s := range r.Spans {
		rows[i] = []string{fmt.Sprintf("%d–%d", s.From, s.To), fmt.Sprintf("%d", s.To-s.From+1), s.Tier}
	}
	b.WriteString("ladder timeline:\n")
	b.WriteString(Table([]string{"slots", "len", "tier"}, rows))

	rows = make([][]string, len(r.Outcomes))
	for i, o := range r.Outcomes {
		rows[i] = []string{o.Outcome, fmt.Sprintf("%d", o.Count)}
	}
	b.WriteString(fmt.Sprintf("\nrequest ledger (%d requests, %d table versions published):\n", r.Total, r.Versions))
	b.WriteString(Table([]string{"outcome", "count"}, rows))

	verdict := "all held"
	if len(r.Violations) > 0 {
		verdict = fmt.Sprintf("%d VIOLATIONS", len(r.Violations))
	}
	b.WriteString(fmt.Sprintf("\ninvariants (%s): %s\n", strings.Join(r.Checkers, ", "), verdict))
	for _, v := range r.Violations {
		b.WriteString(fmt.Sprintf("  %s slot %d: %s\n", v.Checker, v.Slot, v.Detail))
	}
	if len(r.Alerts) > 0 {
		b.WriteString("\nSLO alerts:\n")
		for _, a := range r.Alerts {
			b.WriteString("  " + a.String() + "\n")
		}
	}
	replay := "byte-identical"
	if !r.ReplayIdentical {
		replay = "DIVERGED"
	}
	b.WriteString(fmt.Sprintf("replay: %s (audit fingerprint %016x)\n", replay, r.Fingerprint))
	return b.String()
}
