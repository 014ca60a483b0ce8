package tsdb

import (
	"fmt"
	"sort"

	"repro/internal/obs/event"
)

// The SLO engine: declarative objectives over scraped counter series,
// evaluated with multi-window burn-rate rules (the SRE-workbook
// pattern, transposed from wall time to slots). An SLO names two sets
// of cumulative counters — good events and total events — and an
// objective ratio; the engine differences them over a long and a
// short window and fires when BOTH windows burn error budget faster
// than the rule allows: the long window proves the burn is
// significant, the short window proves it is still happening (and
// un-fires the alert promptly once the incident ends).
//
// Alert transitions are recorded three ways so every consumer sees
// them: a typed Alert in the engine's log (returned by Eval, asserted
// by tests), an event.Alert in the flight recorder (so invariant
// checkers and the trace exporters see them in causal order), and a
// pair of series in the DB itself — slo.firing{slo=...} as a 0/1 step
// series and slo.burn_rate{slo=...,window=...} every evaluation — so
// dumps and the spotbidtop dashboard replay them.

// Selector names one cumulative counter series in the DB. The
// engine's label matching is subset-based: a selector with no labels
// matches the scraper's base-labelled series.
type Selector struct {
	Name   string
	Labels Labels
}

// BurnRule is one multi-window burn-rate condition.
type BurnRule struct {
	// LongSlots and ShortSlots are the two window lengths.
	LongSlots, ShortSlots int
	// MaxBurn is the burn-rate threshold: the rule trips when the
	// error-budget burn rate over BOTH windows is ≥ MaxBurn. Burn rate
	// 1 consumes exactly the budget the objective allows.
	MaxBurn float64
}

// SLO is one declarative objective.
type SLO struct {
	// Name identifies the SLO in alerts, events, and series.
	Name string
	// Good and Total are summed per window; the SLI is good/total.
	Good, Total []Selector
	// Objective is the target ratio (e.g. 0.99 — at least 99% of
	// events good). Must be in [0, 1).
	Objective float64
	// Windows are the burn rules; the SLO fires while ANY rule trips.
	Windows []BurnRule
}

// validate rejects unusable specs up front.
func (s SLO) validate() error {
	if s.Name == "" {
		return fmt.Errorf("tsdb: SLO needs a name")
	}
	if s.Objective < 0 || s.Objective >= 1 {
		return fmt.Errorf("tsdb: SLO %q objective %v outside [0, 1)", s.Name, s.Objective)
	}
	if len(s.Good) == 0 || len(s.Total) == 0 {
		return fmt.Errorf("tsdb: SLO %q needs good and total selectors", s.Name)
	}
	if len(s.Windows) == 0 {
		return fmt.Errorf("tsdb: SLO %q needs at least one burn window", s.Name)
	}
	for _, w := range s.Windows {
		if w.LongSlots <= 0 || w.ShortSlots <= 0 || w.ShortSlots > w.LongSlots {
			return fmt.Errorf("tsdb: SLO %q window %+v needs 0 < short ≤ long", s.Name, w)
		}
		if w.MaxBurn <= 0 {
			return fmt.Errorf("tsdb: SLO %q burn threshold %v must be positive", s.Name, w.MaxBurn)
		}
	}
	return nil
}

// Alert is one SLO state transition.
type Alert struct {
	// Slot is the evaluation slot the transition happened at.
	Slot int
	// SLO names the objective.
	SLO string
	// Firing is true when the alert fired, false when it resolved.
	Firing bool
	// Burn is the long-window burn rate of the tripped rule at
	// transition time (the worst tripped rule when firing; the worst
	// remaining rule when resolving).
	Burn float64
	// Window is the rule behind Burn.
	Window BurnRule
}

// String renders "slot 92 fresh-tier-ratio FIRING (burn 25.0x over 48/6)".
func (a Alert) String() string {
	state := "RESOLVED"
	if a.Firing {
		state = "FIRING"
	}
	return fmt.Sprintf("slot %d %s %s (burn %.1fx over %d/%d)",
		a.Slot, a.SLO, state, a.Burn, a.Window.LongSlots, a.Window.ShortSlots)
}

// Engine evaluates a set of SLOs against a DB. Construct with
// NewEngine; drive it from the scrape loop (Eval after each scrape,
// with non-decreasing slots — the scrape loop's natural order).
//
// The read path is incremental: the engine keeps, per selected
// series, a sliding tail of samples covering the widest burn window
// plus one boundary sample, caught up at each Eval from the series'
// O(1) last-sample state (or a one-time decode when a series first
// matches or several samples landed between evaluations). Selector
// matching is re-run only when the DB's series count changes — series
// are never removed, so the matched sets only ever grow. This keeps
// Eval's cost flat per evaluation instead of growing with history. A
// first cut that decoded every selected series per Eval put the serve
// drill's scrape plane at +65% over the unscraped drill (the
// experiments.servedrill+tsdb overhead pair in BENCH.json, whose
// budget is 5%).
type Engine struct {
	db     *DB
	rec    *event.Recorder
	slos   []SLO
	firing []bool
	alerts []Alert

	maxWindow int
	nSeries   int // len(db.series) at the last selector refresh (-1 forces one)
	tracks    map[*Series]*seriesTrack
	trackList []*seriesTrack
	compiled  []*engineSLO
}

// seriesTrack is the engine's sliding window over one selected
// series.
type seriesTrack struct {
	s    *Series
	seen int     // s.appended at the last catch-up
	pts  []Point // tail: one sample at-or-before the eviction slot, then everything after
}

// catchUp folds samples accepted since the last evaluation into the
// tail, then drops samples no burn window can reach. Callers hold the
// DB lock.
func (t *seriesTrack) catchUp(evictBefore int) {
	if t.s.appended != t.seen {
		if t.s.appended == t.seen+1 {
			// The common case — exactly the one sample this scrape
			// appended — reads the encoder's carried state, no decode.
			if p, ok := t.s.lastPoint(); ok {
				t.pts = append(t.pts, p)
			}
		} else {
			t.pts = append(t.pts[:0], t.s.points()...)
		}
		t.seen = t.s.appended
	}
	for len(t.pts) > 1 && t.pts[1].Slot <= evictBefore {
		t.pts = t.pts[1:]
	}
}

// engineSLO is one SLO's compiled evaluation state.
type engineSLO struct {
	good, total []*seriesTrack // flattened matched tracks, selector order then key order
	burnLabels  []Labels       // per window: {slo=...,window="L/S"}
	burnSeries  []*Series      // per window, created on first Eval (like any appended series)
	firingLbls  Labels
	firingSer   *Series
}

// NewEngine builds an engine. rec, when non-nil, receives an
// event.Alert per transition.
func NewEngine(db *DB, rec *event.Recorder, slos ...SLO) (*Engine, error) {
	e := &Engine{db: db, rec: rec, slos: slos, firing: make([]bool, len(slos)),
		nSeries: -1, tracks: make(map[*Series]*seriesTrack)}
	for _, s := range slos {
		if err := s.validate(); err != nil {
			return nil, err
		}
		es := &engineSLO{firingLbls: L("slo", s.Name), burnSeries: make([]*Series, len(s.Windows))}
		for _, w := range s.Windows {
			es.burnLabels = append(es.burnLabels,
				L("slo", s.Name, "window", fmt.Sprintf("%d/%d", w.LongSlots, w.ShortSlots)))
			if w.LongSlots > e.maxWindow {
				e.maxWindow = w.LongSlots
			}
		}
		e.compiled = append(e.compiled, es)
	}
	return e, nil
}

// refreshLocked re-matches every selector against the DB's series
// set. Callers hold the DB lock.
func (e *Engine) refreshLocked() {
	e.nSeries = len(e.db.series)
	for i, s := range e.slos {
		e.compiled[i].good = e.matchLocked(s.Good)
		e.compiled[i].total = e.matchLocked(s.Total)
	}
}

// matchLocked resolves selectors to tracks, subset-matched like
// DB.Select and in the same sorted-key order — the float sum below
// must add in a deterministic order.
func (e *Engine) matchLocked(sels []Selector) []*seriesTrack {
	var out []*seriesTrack
	for _, sel := range sels {
		keys := make([]string, 0, 4)
		for k, s := range e.db.series {
			if s.Name == sel.Name && labelsSubset(sel.Labels, s.Labels) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := e.db.series[k]
			t, ok := e.tracks[s]
			if !ok {
				t = &seriesTrack{s: s}
				e.tracks[s] = t
				e.trackList = append(e.trackList, t)
			}
			out = append(out, t)
		}
	}
	return out
}

// sumTracks sums Increase over the window across the matched tracks.
func sumTracks(tracks []*seriesTrack, from, to int) float64 {
	var sum float64
	for _, t := range tracks {
		sum += Increase(t.pts, from, to)
	}
	return sum
}

// burnOver returns the burn rate over (slot−window, slot]: the error
// rate relative to the budget the objective leaves. A window with no
// traffic burns nothing.
func (e *Engine) burnOver(es *engineSLO, s SLO, slot, window int) float64 {
	from := slot - window
	total := sumTracks(es.total, from, slot)
	if total <= 0 {
		return 0
	}
	good := sumTracks(es.good, from, slot)
	errRate := 1 - good/total
	if errRate < 0 {
		errRate = 0
	}
	return errRate / (1 - s.Objective)
}

// Eval evaluates every SLO at the given slot, records burn-rate and
// firing series into the DB, and returns the transitions (alerts
// fired or resolved) this evaluation produced. Call it after a scrape
// so the windows see current data.
func (e *Engine) Eval(slot int) []Alert {
	e.db.mu.Lock()
	defer e.db.mu.Unlock()
	if len(e.db.series) != e.nSeries {
		e.refreshLocked()
	}
	for _, t := range e.trackList {
		t.catchUp(slot - e.maxWindow)
	}
	var transitions []Alert
	for i, s := range e.slos {
		es := e.compiled[i]
		tripped := false
		var worst Alert
		for j, w := range s.Windows {
			long := e.burnOver(es, s, slot, w.LongSlots)
			short := e.burnOver(es, s, slot, w.ShortSlots)
			if es.burnSeries[j] == nil {
				ls := es.burnLabels[j]
				es.burnSeries[j] = e.db.seriesLocked("slo.burn_rate"+ls.String(), "slo.burn_rate", ls)
			}
			es.burnSeries[j].append(e.db.max, slot, long)
			hit := long >= w.MaxBurn && short >= w.MaxBurn
			// worst tracks the tripped rule with the highest long burn
			// when any rule trips, else the highest-burn rule overall.
			better := j == 0 || (hit && !tripped) || (hit == tripped && long > worst.Burn)
			if better {
				worst = Alert{Slot: slot, SLO: s.Name, Burn: long, Window: w}
			}
			tripped = tripped || hit
		}
		if tripped != e.firing[i] {
			e.firing[i] = tripped
			worst.Firing = tripped
			transitions = append(transitions, worst)
			e.alerts = append(e.alerts, worst)
			cause := "resolved"
			if tripped {
				cause = "firing"
			}
			e.rec.Emit(&event.Event{Kind: event.Alert, Slot: slot, Subject: s.Name,
				Cause: cause, Value: worst.Burn})
		}
		firing := 0.0
		if tripped {
			firing = 1
		}
		if es.firingSer == nil {
			es.firingSer = e.db.seriesLocked("slo.firing"+es.firingLbls.String(), "slo.firing", es.firingLbls)
		}
		es.firingSer.append(e.db.max, slot, firing)
	}
	return transitions
}

// Alerts returns the full transition log, oldest first.
func (e *Engine) Alerts() []Alert { return append([]Alert(nil), e.alerts...) }

// Firing reports whether the named SLO is currently firing.
func (e *Engine) Firing(name string) bool {
	for i, s := range e.slos {
		if s.Name == name {
			return e.firing[i]
		}
	}
	return false
}

// SLOs returns the engine's specs.
func (e *Engine) SLOs() []SLO { return append([]SLO(nil), e.slos...) }
