package serve

import (
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/timeslot"
)

// Quote is one precomputed bidding answer: the optimal bid for a
// (t_s, t_r) grid cell under one frozen price snapshot, with the
// analytic predictions of Eqs. 9/13 attached. Feasible=false marks an
// Eq. 14-infeasible cell (persistent) or an unsatisfiable
// no-interruption constraint (one-time); such cells are refused, never
// served.
type Quote struct {
	Feasible              bool    `json:"feasible"`
	Price                 float64 `json:"price"`
	AcceptProb            float64 `json:"accept_prob"`
	ExpectedSpot          float64 `json:"expected_spot"`
	ExpectedRunHours      float64 `json:"expected_run_hours"`
	ExpectedCompleteHours float64 `json:"expected_complete_hours"`
	ExpectedCost          float64 `json:"expected_cost"`
	OnDemandCost          float64 `json:"on_demand_cost"`
	Savings               float64 `json:"savings"`
}

func quoteOf(b core.Bid, feasible bool) Quote {
	return Quote{
		Feasible:              feasible,
		Price:                 b.Price,
		AcceptProb:            b.AcceptProb,
		ExpectedSpot:          b.ExpectedSpot,
		ExpectedRunHours:      float64(b.ExpectedRunTime),
		ExpectedCompleteHours: float64(b.ExpectedCompletion),
		ExpectedCost:          b.ExpectedCost,
		OnDemandCost:          b.OnDemandCost,
		Savings:               b.Savings(),
	}
}

// QuoteTable is one market's immutable, versioned serving artifact:
// the Prop. 4/5 optima memoized over the configured (t_s, t_r) grid
// against a frozen window snapshot. Tables are built off the request
// path and published with a single atomic pointer store; everything
// here is written once before publication and read-only after, so the
// lock-free readers need no synchronization beyond the pointer load.
type QuoteTable struct {
	// Key is the market this table answers for.
	Key Key
	// Version increases by one per successful build of this market.
	// A served response always names the exact version it came from.
	Version uint64
	// BuiltSlot is the slot of the *newest sample* in the snapshot —
	// data freshness, not build time — so a stalled feed ages the
	// table even while the builder keeps succeeding.
	BuiltSlot int
	// BuildSlot is the slot the build ran at (≥ BuiltSlot under a
	// feed stall).
	BuildSlot int
	// Fingerprint hashes the snapshot's sorted sample series; the
	// provenance invariant ties every served price back to it.
	Fingerprint uint64
	// Samples is the snapshot size.
	Samples int
	// OnDemand is the ceiling π̄ the quotes were computed under.
	OnDemand float64

	// ExecGrid and RecGrid are the memoized job axes, in hours,
	// sorted ascending. RecGrid applies to persistent quotes only.
	ExecGrid []float64
	RecGrid  []float64

	// onetime[i] answers a one-time request with t_s = ExecGrid[i].
	onetime []Quote
	// persistent[i*len(RecGrid)+j] answers a persistent request with
	// t_s = ExecGrid[i], t_r = RecGrid[j]. Cells with t_r ≥ t_s are
	// invalid (never addressed — Resolve bumps the exec index past
	// them) and hold the zero Quote.
	persistent []Quote
}

// buildTable computes a market's full quote grid against one frozen
// snapshot. This is the expensive memoization step (one root-finding
// per cell); it runs in the build pipeline, never on the request
// path.
func buildTable(key Key, onDemand float64, snap *dist.Empirical, version uint64,
	builtSlot, buildSlot int, execGrid, recGrid []float64, slot timeslot.Hours) *QuoteTable {
	t := &QuoteTable{
		Key:         key,
		Version:     version,
		BuiltSlot:   builtSlot,
		BuildSlot:   buildSlot,
		Fingerprint: snap.Fingerprint(),
		Samples:     snap.N(),
		OnDemand:    onDemand,
		ExecGrid:    execGrid,
		RecGrid:     recGrid,
		onetime:     make([]Quote, len(execGrid)),
		persistent:  make([]Quote, len(execGrid)*len(recGrid)),
	}
	m := core.Market{Price: snap, OnDemand: onDemand, Slot: slot}
	for i, exec := range execGrid {
		job := core.Job{Exec: timeslot.Hours(exec)}
		if b, err := m.OneTimeBid(job); err == nil {
			t.onetime[i] = quoteOf(b, true)
		} else {
			t.onetime[i] = quoteOf(b, false)
		}
		for j, rec := range recGrid {
			if rec >= exec {
				continue // invalid cell, unreachable via Resolve
			}
			job := core.Job{Exec: timeslot.Hours(exec), Recovery: timeslot.Hours(rec)}
			if b, err := m.PersistentBid(job); err == nil {
				t.persistent[i*len(recGrid)+j] = quoteOf(b, true)
			}
			// On error the zero Quote stands: Feasible=false with no
			// price — exactly the honest refusal Eq. 14 demands.
		}
	}
	return t
}

// gridCeil returns the index of the smallest grid value ≥ v, clamped
// to the last cell for v beyond the grid (the table answers for its
// largest job; the response reports the grid value actually used).
// Rounding job durations *up* is the conservative direction: a bid
// sized for a longer job never under-bids the requested one. The
// grids are ≤ ~10 cells, so a linear scan beats binary search and —
// unlike sort.SearchFloat64s — compiles allocation-free.
func gridCeil(grid []float64, v float64) int {
	for i, g := range grid {
		if g >= v {
			return i
		}
	}
	return len(grid) - 1
}

// Resolve maps a request's (execHours, recHours) onto a grid cell and
// returns the quote plus the grid coordinates served. recHours = 0
// selects the one-time plan (recJ = -1); recHours > 0 the persistent
// plan. Both axes round up; when that rounding would collide recovery
// into exec (t_r ≥ t_s cell), the exec index is bumped until the cell
// is valid again — still an over-approximation of the job, never an
// under-bid. The path is allocation-free.
func (t *QuoteTable) Resolve(execHours, recHours float64) (q Quote, execI, recJ int) {
	execI = gridCeil(t.ExecGrid, execHours)
	if recHours <= 0 {
		return t.onetime[execI], execI, -1
	}
	recJ = gridCeil(t.RecGrid, recHours)
	for execI < len(t.ExecGrid)-1 && t.RecGrid[recJ] >= t.ExecGrid[execI] {
		execI++
	}
	if t.RecGrid[recJ] >= t.ExecGrid[execI] {
		// Recovery exceeds even the largest grid job: nothing honest
		// to serve.
		return Quote{}, execI, recJ
	}
	return t.persistent[execI*len(t.RecGrid)+recJ], execI, recJ
}

// BuildEvent is one entry in the build pipeline's log.
type BuildEvent uint8

const (
	// BuildOK: a table was built and swapped in immediately.
	BuildOK BuildEvent = iota
	// BuildDelayed: a table was built but chaos postponed its swap.
	BuildDelayed
	// BuildLanded: a previously delayed table's swap landed.
	BuildLanded
	// BuildFailed: the build attempt failed (injected fault).
	BuildFailed
)

var buildEventNames = [...]string{"ok", "delayed", "landed", "failed"}

// String implements fmt.Stringer.
func (e BuildEvent) String() string {
	if int(e) < len(buildEventNames) {
		return buildEventNames[e]
	}
	return "unknown"
}

// BuildRecord is one build-pipeline decision, kept for the drill's
// provenance checks and /readyz debugging.
type BuildRecord struct {
	Slot    int        `json:"slot"`
	Key     string     `json:"key"`
	Event   BuildEvent `json:"-"`
	EventS  string     `json:"event"`
	Version uint64     `json:"version,omitempty"`
	LandAt  int        `json:"land_at,omitempty"`
}

// MaybeRebuild runs one slot of the build pipeline: lands any delayed
// swaps that are due, then — on the rebuild cadence — snapshots each
// market with fresh data and builds its next table. Builds are
// serialized (one goroutine's worth of work per call); the feed and
// the readers are never blocked by a build, only by the window's
// catch-up of its backlog and the snapshot copy. Injected faults can
// fail a build (watchdog counts consecutive failures) or delay its
// swap; at most one delayed build is in flight per market, so
// versions can never land out of order.
func (s *Server) MaybeRebuild(slot int) []BuildRecord {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	var out []BuildRecord

	for _, ms := range s.byIdx {
		// Land a due delayed swap first, so a build delayed to this
		// very slot behaves like an immediate one.
		ms.mu.Lock()
		if p := ms.pending; p != nil && slot >= p.landAt {
			ms.pending = nil
			ms.table.Store(p.table)
			ms.lastSwap = slot
			ms.failures = 0
			ms.mu.Unlock()
			s.mSwaps.Inc()
			out = append(out, BuildRecord{Slot: slot, Key: ms.key.String(), Event: BuildLanded,
				EventS: BuildLanded.String(), Version: p.table.Version})
			continue // at most one pipeline step per market per slot
		}

		cur := ms.table.Load()
		freshData := cur == nil || ms.lastIngest > cur.BuiltSlot
		if slot%s.cfg.RebuildEvery != 0 || ms.pending != nil || !freshData {
			ms.mu.Unlock()
			continue
		}
		ms.catchUp()
		if ms.window.N() < s.cfg.MinSamples {
			ms.mu.Unlock()
			continue
		}
		if s.buildFails(slot) {
			ms.failures++
			ms.mu.Unlock()
			s.mBuildFailures.Inc()
			out = append(out, BuildRecord{Slot: slot, Key: ms.key.String(), Event: BuildFailed,
				EventS: BuildFailed.String()})
			continue
		}
		snap, err := ms.window.Snapshot()
		if err != nil {
			ms.mu.Unlock()
			continue
		}
		ms.version++
		version := ms.version
		builtSlot := ms.lastIngest
		ms.mu.Unlock()

		// The expensive part runs outside the market lock: the feed
		// keeps flowing while the grid is memoized.
		tbl := buildTable(ms.key, ms.spec.OnDemand, snap, version, builtSlot, slot,
			s.cfg.ExecGridHours, s.cfg.RecoveryGridHours, timeslot.DefaultSlot)
		s.mBuilds.Inc()

		delay := s.buildDelaySlots(slot)
		ms.mu.Lock()
		if delay > 0 {
			ms.pending = &pendingBuild{table: tbl, landAt: slot + delay}
			ms.mu.Unlock()
			s.mBuildDelays.Inc()
			out = append(out, BuildRecord{Slot: slot, Key: ms.key.String(), Event: BuildDelayed,
				EventS: BuildDelayed.String(), Version: version, LandAt: slot + delay})
		} else {
			ms.table.Store(tbl)
			ms.lastSwap = slot
			ms.failures = 0
			ms.mu.Unlock()
			s.mSwaps.Inc()
			out = append(out, BuildRecord{Slot: slot, Key: ms.key.String(), Event: BuildOK,
				EventS: BuildOK.String(), Version: version})
		}
	}
	if len(out) > 0 {
		s.buildLog = append(s.buildLog, out...)
	}
	return out
}

// BuildLog returns a copy of the build pipeline's decision log.
func (s *Server) BuildLog() []BuildRecord {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	out := make([]BuildRecord, len(s.buildLog))
	copy(out, s.buildLog)
	return out
}

// Table returns the current table for a market (nil before the first
// swap) — the same lock-free load the quote path uses.
func (s *Server) Table(key Key) *QuoteTable {
	ms, ok := s.markets[key]
	if !ok {
		return nil
	}
	return ms.table.Load()
}

// fault accessors: nil-injector-safe wrappers over Config.Faults.

func (s *Server) feedStalled(slot int) bool {
	return s.cfg.Faults != nil && s.cfg.Faults.FeedStalled(slot)
}

func (s *Server) buildFails(slot int) bool {
	return s.cfg.Faults != nil && s.cfg.Faults.BuildFails(slot)
}

func (s *Server) buildDelaySlots(slot int) int {
	if s.cfg.Faults == nil {
		return 0
	}
	if d := s.cfg.Faults.BuildDelaySlots(slot); d > 0 {
		return d
	}
	return 0
}

func (s *Server) deadlineSkew(slot int) int64 {
	if s.cfg.Faults == nil {
		return 0
	}
	return s.cfg.Faults.DeadlineSkewMicros(slot)
}

func (s *Server) spikeFactor(slot int) float64 {
	if s.cfg.Faults == nil {
		return 1
	}
	if f := s.cfg.Faults.SpikeFactor(slot); f > 0 && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f
	}
	return 1
}
