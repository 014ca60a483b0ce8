// Package serve is the bid-advisory control plane (ROADMAP item 4): a
// long-running server that answers optimal-bid quotes — given
// (t_k, t_r, t_s, type, region), return p* (Prop. 4/5), its expected
// cost, and Eq. 14 feasibility — at production rates, from versioned
// per-(region, type) quote tables precomputed off the request path.
//
// The architecture is a feed → build → swap pipeline in front of a
// lock-free read path:
//
//   - Feed: per-market spot prices stream into an incremental
//     dist.WindowedECDF (the Fig. 1 rolling two-month monitor).
//   - Build: every RebuildEvery slots the window is snapshotted and
//     the ψ(p) root-finding of Prop. 5 (plus the Prop. 4 quantile) is
//     memoized over a (t_s, t_r) grid into an immutable QuoteTable
//     stamped with a version, the data's newest slot, and the
//     window's fingerprint.
//   - Swap: the finished table is published with one atomic pointer
//     store. Readers never take the feed lock and never allocate; a
//     request is one atomic load, two binary searches over the grid,
//     and a ring-buffer audit write.
//
// Robustness is the headline, not an afterthought:
//
//   - A three-tier staleness ladder prices the honesty of every
//     answer by the age of the data behind it (table.BuiltSlot is the
//     newest *sample*, not the build time, so a stalled feed degrades
//     even while the builder keeps succeeding): fresh → stale with an
//     explicit age and warning → refuse. An Eq. 14-infeasible quote
//     is refused in every tier — a quote that silently diverges is
//     worse than an honest refusal.
//   - Token-bucket admission control with priority classes
//     (interactive > standard > batch; higher classes may borrow idle
//     lower-class tokens, so batch starves first under overload) and
//     deadline-aware shedding: a request whose deadline cannot be met
//     is rejected immediately — never queued to die — and a response
//     is never emitted past its deadline.
//   - A stall watchdog on the rebuild pipeline (consecutive build
//     failures or no swap within three rebuild cadences) degrades
//     readiness and the tier ladder instead of ever blocking reads.
//   - Every decision lands in a bounded, preallocated audit ring with
//     a per-outcome conservation ledger; internal/invariant audits
//     the stream (table provenance, staleness monotonicity, deadline
//     honesty, conservation) and the whole loop is proven by the
//     chaos drill in drill.go.
//
// The package is wall-clock-free (enforced by scripts/no_wallclock.sh):
// the market clock is an externally advanced slot counter and request
// time is caller-supplied logical microseconds, so the chaos drill and
// its byte-identical replay are deterministic. cmd/spotbidd supplies
// real time at the edge via Config.NowMicros and a ticker goroutine.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/timeslot"
)

// Key identifies one served spot market: a (region, instance type)
// pair.
type Key struct {
	Region string
	Type   instances.Type
}

// String renders "region/type".
func (k Key) String() string { return k.Region + "/" + string(k.Type) }

// Tier is the staleness ladder rung a response was served under.
type Tier uint8

const (
	// TierFresh: the table's data age is within FreshForSlots.
	TierFresh Tier = iota
	// TierStale: the data is old but serviceable; the response
	// carries the explicit age and a warning.
	TierStale
	// TierRefuse: the data is too old to quote honestly (or no table
	// exists yet); the request is refused.
	TierRefuse
)

var tierNames = [...]string{"fresh", "stale", "refuse"}

// String implements fmt.Stringer.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// Faults is the serving-layer chaos surface. The server and the drill
// consult it with *drill-relative* slots; a nil injector means no
// faults. chaos.ServeInjector implements it from an explicit
// schedule.
type Faults interface {
	// FeedStalled reports whether the price feed delivers nothing
	// this slot.
	FeedStalled(slot int) bool
	// BuildFails reports whether a table build attempted this slot
	// fails.
	BuildFails(slot int) bool
	// BuildDelaySlots returns how many slots a build started this
	// slot is delayed before its swap lands (0 = immediate).
	BuildDelaySlots(slot int) int
	// DeadlineSkewMicros returns the client-clock skew applied to
	// request deadlines issued this slot (positive skew shortens the
	// effective budget).
	DeadlineSkewMicros(slot int) int64
	// SpikeFactor returns the multiplier corrupting fed prices this
	// slot (1 = clean feed).
	SpikeFactor(slot int) float64
}

// Config tunes a Server. The zero value of each field selects the
// documented default.
type Config struct {
	// Region names the served region (default "us-east-1").
	Region string
	// Types lists the served instance types (required, non-empty).
	Types []instances.Type
	// WindowSlots is the rolling price-window capacity per market
	// (default 61 days of five-minute slots, the paper's window).
	WindowSlots int
	// MinSamples gates the first table build (default 288 = 1 day).
	MinSamples int
	// RebuildEvery is the slot cadence of table rebuild attempts
	// (default 12 = 1 hour).
	RebuildEvery int
	// FreshForSlots is the maximum data age served as TierFresh
	// (default 36 = 3 hours).
	FreshForSlots int
	// StaleForSlots is the maximum data age served at all (default
	// 288 = 1 day); beyond it the ladder refuses.
	StaleForSlots int
	// FailuresToStall is the consecutive-build-failure watchdog trip
	// (default 3).
	FailuresToStall int
	// ExecGridHours is the memoized t_s grid (sorted ascending,
	// default {0.5, 1, 2, 4, 8, 12, 24}).
	ExecGridHours []float64
	// RecoveryGridHours is the memoized t_r grid for persistent
	// quotes (sorted ascending, default {30s, 60s, 120s, 300s, 600s,
	// 1800s}).
	RecoveryGridHours []float64
	// Admission tunes the token buckets; see AdmitConfig.
	Admission AdmitConfig
	// AuditCap bounds the audit ring (default 1<<15 records; older
	// records are overwritten, the conservation counters stay exact).
	AuditCap int
	// Metrics, when non-nil, receives serve.* counters, gauges and
	// histograms. Nil records nothing.
	Metrics *obs.Registry
	// Faults, when non-nil, injects serving-layer chaos.
	Faults Faults
	// NowMicros, when non-nil, supplies the authoritative time for
	// the emit-time deadline re-check (cmd/spotbidd passes wall-clock
	// microseconds). Nil — the deterministic default — trusts the
	// request's logical NowMicros.
	NowMicros func() int64
}

// withDefaults returns the config with defaults applied, or an error.
func (c Config) withDefaults() (Config, error) {
	if c.Region == "" {
		c.Region = "us-east-1"
	}
	if len(c.Types) == 0 {
		return c, fmt.Errorf("serve: config needs at least one instance type")
	}
	if c.WindowSlots == 0 {
		c.WindowSlots = 61 * 288
	}
	if c.WindowSlots < 1 {
		return c, fmt.Errorf("serve: window of %d slots is unusable", c.WindowSlots)
	}
	if c.MinSamples == 0 {
		c.MinSamples = 288
	}
	if c.MinSamples < 1 || c.MinSamples > c.WindowSlots {
		return c, fmt.Errorf("serve: min samples %d outside [1, window %d]", c.MinSamples, c.WindowSlots)
	}
	if c.RebuildEvery == 0 {
		c.RebuildEvery = 12
	}
	if c.RebuildEvery < 1 {
		return c, fmt.Errorf("serve: rebuild cadence %d must be positive", c.RebuildEvery)
	}
	if c.FreshForSlots == 0 {
		c.FreshForSlots = 36
	}
	if c.StaleForSlots == 0 {
		c.StaleForSlots = 288
	}
	if c.FreshForSlots < 0 || c.StaleForSlots < c.FreshForSlots {
		return c, fmt.Errorf("serve: staleness ladder fresh=%d stale=%d must satisfy 0 ≤ fresh ≤ stale",
			c.FreshForSlots, c.StaleForSlots)
	}
	if c.FailuresToStall == 0 {
		c.FailuresToStall = 3
	}
	if len(c.ExecGridHours) == 0 {
		c.ExecGridHours = []float64{0.5, 1, 2, 4, 8, 12, 24}
	}
	if len(c.RecoveryGridHours) == 0 {
		c.RecoveryGridHours = []float64{30, 60, 120, 300, 600, 1800}
		for i, s := range c.RecoveryGridHours {
			c.RecoveryGridHours[i] = float64(timeslot.Seconds(s))
		}
	}
	for _, g := range [][]float64{c.ExecGridHours, c.RecoveryGridHours} {
		if !sort.Float64sAreSorted(g) {
			return c, fmt.Errorf("serve: quote grid %v must be sorted ascending", g)
		}
	}
	if c.ExecGridHours[0] <= 0 {
		return c, fmt.Errorf("serve: execution grid must be positive, got %v", c.ExecGridHours[0])
	}
	if c.RecoveryGridHours[0] < 0 {
		return c, fmt.Errorf("serve: recovery grid must be non-negative, got %v", c.RecoveryGridHours[0])
	}
	var err error
	if c.Admission, err = c.Admission.withDefaults(); err != nil {
		return c, err
	}
	if c.AuditCap == 0 {
		c.AuditCap = 1 << 15
	}
	if c.AuditCap < 1 {
		return c, fmt.Errorf("serve: audit capacity %d must be positive", c.AuditCap)
	}
	return c, nil
}

// marketState is one market's mutable pipeline state. The mutex
// guards the window and the build bookkeeping; the published table is
// read lock-free through the atomic pointer.
type marketState struct {
	key  Key
	idx  uint16
	spec instances.Spec

	mu         sync.Mutex
	window     *dist.WindowedECDF
	lastIngest int // slot of the newest ingested sample
	lastSwap   int // slot of the last landed table swap
	failures   int // consecutive build failures
	version    uint64
	pending    *pendingBuild // at most one delayed build in flight

	table atomic.Pointer[QuoteTable]
}

// pendingBuild is a finished table whose swap a chaos latency spike
// has postponed.
type pendingBuild struct {
	table  *QuoteTable
	landAt int
}

// Server is the control plane. Construct with New; drive the market
// clock with SetSlot/Ingest/MaybeRebuild (cmd/spotbidd runs those
// from its ticker and builder goroutines, the drill runs them
// synchronously); answer requests with Quote.
type Server struct {
	cfg        Config
	slotLen    timeslot.Hours
	slotMicros int64
	keys       []Key
	markets    map[Key]*marketState
	byIdx      []*marketState

	slot     atomic.Int64
	draining atomic.Bool

	admit *Admitter
	audit *Audit

	buildMu  sync.Mutex // serializes MaybeRebuild and guards buildLog
	buildLog []BuildRecord

	// Cached metric handles (nil-safe when Metrics is nil).
	mOutcome                                      [NumOutcomes]*obs.Counter
	mBuilds, mBuildFailures, mBuildDelays, mSwaps *obs.Counter
	mAge                                          *obs.Histogram
	mSlot, mStall                                 *obs.Gauge
}

// New builds a Server. Tables are empty until the feed has delivered
// MinSamples and MaybeRebuild has run; until then every quote is
// refused cold.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		slotLen:    timeslot.DefaultSlot,
		slotMicros: int64(float64(timeslot.DefaultSlot) * 3.6e9),
		markets:    make(map[Key]*marketState, len(cfg.Types)),
		admit:      NewAdmitter(cfg.Admission),
		audit:      newAudit(cfg.AuditCap),
	}
	seen := map[instances.Type]bool{}
	for _, t := range cfg.Types {
		if seen[t] {
			return nil, fmt.Errorf("serve: duplicate instance type %q", t)
		}
		seen[t] = true
		spec, err := instances.Lookup(t)
		if err != nil {
			return nil, err
		}
		w, err := dist.NewWindowedECDF(cfg.WindowSlots, 0)
		if err != nil {
			return nil, err
		}
		k := Key{Region: cfg.Region, Type: t}
		ms := &marketState{key: k, spec: spec, window: w, lastIngest: -1, lastSwap: -1}
		s.markets[k] = ms
		s.keys = append(s.keys, k)
	}
	sort.Slice(s.keys, func(i, j int) bool { return s.keys[i].Type < s.keys[j].Type })
	for i, k := range s.keys {
		ms := s.markets[k]
		ms.idx = uint16(i)
		s.byIdx = append(s.byIdx, ms)
	}
	if m := cfg.Metrics; m != nil {
		for o := Outcome(0); o < NumOutcomes; o++ {
			s.mOutcome[o] = m.Counter("serve.outcome." + o.String())
		}
		s.mBuilds = m.Counter("serve.builds")
		s.mBuildFailures = m.Counter("serve.build_failures")
		s.mBuildDelays = m.Counter("serve.build_delays")
		s.mSwaps = m.Counter("serve.table_swaps")
		s.mAge = m.Histogram("serve.age_slots", obs.SlotBuckets)
		s.mSlot = m.Gauge("serve.slot")
		s.mStall = m.Gauge("serve.stalled_markets")
	}
	return s, nil
}

// Keys returns the served markets in the canonical (sorted) order the
// audit log indexes them by.
func (s *Server) Keys() []Key {
	out := make([]Key, len(s.keys))
	copy(out, s.keys)
	return out
}

// SlotLen returns the pricing-slot length t_k the tables are built
// for.
func (s *Server) SlotLen() timeslot.Hours { return s.slotLen }

// SlotMicros returns one slot in logical microseconds.
func (s *Server) SlotMicros() int64 { return s.slotMicros }

// Slot returns the current market slot.
func (s *Server) Slot() int { return int(s.slot.Load()) }

// SetSlot advances the market clock. The driver calls it once per
// slot before ingesting that slot's prices.
func (s *Server) SetSlot(slot int) {
	s.slot.Store(int64(slot))
	s.mSlot.Set(float64(slot))
}

// Ingest feeds one spot-price observation for a market. Prices must
// be finite; the slot stamps the market's data freshness. The chaos
// surface is applied here so every driver sees identical fault
// semantics: a stalled feed drops the sample (freshness does not
// advance — the staleness ladder takes it from there), a price spike
// multiplies it.
func (s *Server) Ingest(key Key, slot int, price float64) error {
	ms, ok := s.markets[key]
	if !ok {
		return fmt.Errorf("serve: unknown market %s", key)
	}
	if s.feedStalled(slot) {
		return nil
	}
	price *= s.spikeFactor(slot)
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if err := ms.window.Push(price); err != nil {
		return err
	}
	if slot > ms.lastIngest {
		ms.lastIngest = slot
	}
	return nil
}

// Drain flips the server into draining mode: readiness goes false and
// every subsequent quote is refused with OutcomeRefusedDraining.
// In-flight responses complete normally (the HTTP layer's Shutdown
// handles connection draining; Drain handles answer honesty).
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Audit returns the server's audit log.
func (s *Server) Audit() *Audit { return s.audit }

// tierForAge maps a data age in slots onto the staleness ladder.
func (s *Server) tierForAge(age int) Tier {
	switch {
	case age <= s.cfg.FreshForSlots:
		return TierFresh
	case age <= s.cfg.StaleForSlots:
		return TierStale
	default:
		return TierRefuse
	}
}

// KeyHealth is one market's health snapshot.
type KeyHealth struct {
	Key        Key    `json:"key"`
	HasTable   bool   `json:"has_table"`
	Version    uint64 `json:"version,omitempty"`
	BuiltSlot  int    `json:"built_slot"`
	AgeSlots   int    `json:"age_slots"`
	Tier       string `json:"tier"`
	Stalled    bool   `json:"stalled"`
	Failures   int    `json:"consecutive_build_failures"`
	WindowN    int    `json:"window_samples"`
	LastIngest int    `json:"last_ingest_slot"`
}

// Health is the /readyz document.
type Health struct {
	Slot     int         `json:"slot"`
	Draining bool        `json:"draining"`
	Ready    bool        `json:"ready"`
	Keys     []KeyHealth `json:"markets"`
}

// Health reports liveness of the pipeline per market. Ready means:
// not draining, and every market holds a table the ladder would still
// serve (fresh or stale). A stalled pipeline degrades Ready only once
// the ladder actually refuses — the watchdog reports, the ladder
// decides.
func (s *Server) Health() Health {
	slot := s.Slot()
	h := Health{Slot: slot, Draining: s.Draining(), Ready: !s.Draining()}
	stalled := 0
	for _, k := range s.keys {
		ms := s.markets[k]
		ms.mu.Lock()
		kh := KeyHealth{
			Key:        k,
			Failures:   ms.failures,
			WindowN:    ms.window.N(),
			LastIngest: ms.lastIngest,
			BuiltSlot:  -1,
		}
		lastSwap := ms.lastSwap
		ms.mu.Unlock()
		tbl := ms.table.Load()
		if tbl != nil {
			kh.HasTable = true
			kh.Version = tbl.Version
			kh.BuiltSlot = tbl.BuiltSlot
			kh.AgeSlots = slot - tbl.BuiltSlot
		}
		tier := TierRefuse
		if tbl != nil {
			tier = s.tierForAge(kh.AgeSlots)
		}
		kh.Tier = tier.String()
		// A market whose last swap is more than three rebuild cadences
		// back while new data is waiting is stalled.
		kh.Stalled = kh.Failures >= s.cfg.FailuresToStall ||
			(kh.HasTable && slot-lastSwap > 3*s.cfg.RebuildEvery && kh.LastIngest > kh.BuiltSlot)
		if kh.Stalled {
			stalled++
		}
		if tier == TierRefuse {
			h.Ready = false
		}
		h.Keys = append(h.Keys, kh)
	}
	s.mStall.Set(float64(stalled))
	return h
}
