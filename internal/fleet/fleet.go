// Package fleet is the multi-region controller: it runs a persistent
// job across several simulated regions (each with its own price trace
// and chaos profile) on a shared slot clock, scores each region's
// health from the event counts its own region and client keep, and
// trips a per-region circuit breaker when a region degrades. A tripped
// job is drained (request cancelled, checkpoint exported), migrated to
// the healthiest sibling region — paying the recovery time t_r plus a
// fixed 60 s migration penalty — and re-priced there with the paper's
// persistent optimum. Only when every breaker is open, or Eq. 14
// declares the job infeasible in every region, does the controller
// escalate to on-demand (§3.2's completion-control playbook, applied
// fleet-wide).
//
// Determinism contract: members are scored, selected, and ticked in
// their construction order; health scores are plain float arithmetic
// over counter deltas; nothing reads the wall clock or an unseeded
// RNG. Two runs over the same traces and seeds produce
// byte-identical failover schedules (Report.Schedule) and metric
// snapshots. With a single member and a fault-free substrate the
// controller is bit-identical to driving the member's client directly
// (see DESIGN.md §8).
package fleet

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/retry"
	"repro/internal/timeslot"
)

// BreakerState is a member's circuit-breaker state.
type BreakerState int

const (
	// Closed: the region takes traffic.
	Closed BreakerState = iota
	// Open: the region is quarantined; no legs run there.
	Open
	// HalfOpen: the quarantine elapsed; the region may host one
	// probationary leg, closing on success and re-opening on a trip.
	HalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// ErrBreakerOpen aborts the active run when the hosting region's
// breaker trips; the controller catches it and migrates the job.
var ErrBreakerOpen = errors.New("fleet: active region's circuit breaker opened")

// The controller's tuning (DESIGN.md §8). The invariant checkers
// audit recorded runs against the exported three.
const (
	// healthWindow is the leaky-integrator horizon, in slots, of the
	// health score's rate terms (3 hours).
	healthWindow = 36
	// TripScore is the health score at which the active member's
	// breaker trips; scores live in [0,1].
	TripScore = 0.5
	// openSlots is how long a tripped breaker stays open before the
	// region may host a probationary leg (6 hours).
	openSlots = 72
	// probeSlots is how long a half-open region must host the job
	// without tripping before its breaker closes.
	probeSlots = 36
	// OutageTrip is the capacity-outage hard trip: this many
	// consecutive slots with blocked launches open the breaker
	// regardless of the score.
	OutageTrip = 3
	// maxMigrations caps cross-region moves per job before the
	// controller escalates to on-demand.
	maxMigrations = 8
	// MigrationPenalty is the extra work, in hours (60 s), charged on
	// top of the recovery time t_r each time a checkpointed job moves
	// regions: the cost of copying its state across the WAN.
	MigrationPenalty timeslot.Hours = 60.0 / 3600
)

// Config attaches observers to the controller. The zero value runs it
// unobserved.
type Config struct {
	// Metrics, when non-nil, receives the controller's own telemetry
	// (fleet.* metrics). It is deliberately separate from the members'
	// registries so an attached fleet never perturbs their snapshots.
	Metrics *obs.Registry
	// Trace, when non-nil, is the flight recorder shared across the
	// fleet: the controller installs it on every member client (which
	// wires the regions, volumes, and retry policies too), opens the
	// job's root span, and emits BreakerTransition — carrying the
	// member's health-score vector at transition time — plus
	// Drain/Migrate events around every failover. Nil — the default —
	// leaves all members untouched, keeping seeded fleet runs
	// bit-identical to an uninstrumented controller.
	Trace *event.Recorder
	// OnSlot, when non-nil, runs at the end of every Tick — after the
	// members advanced and the breaker bookkeeping settled — with the
	// slot the fleet just ticked into. It is the observation hook the
	// tsdb scrapers attach to; it must not call back into the
	// controller's mutating API.
	OnSlot func(slot int)
}

// Member is one region under the controller: the region, a client
// bound to it, and an ID used in events, metric names, and schedules.
type Member struct {
	// ID names the region (e.g. "us-east-1"). Keep it metric-name safe;
	// empty IDs default to "region-<index>".
	ID string
	// Region is the member's simulated cloud.
	Region *cloud.Region
	// Client runs legs against the region. The controller installs its
	// own Ticker and Delegate on it; drive jobs through the controller,
	// not the client, while a fleet is attached.
	Client *client.Client
}

// counterSample is one reading of the member's own event counts, the
// health score's inputs.
type counterSample struct {
	apiFaults, blocked, outbid, accepted, rejected, stale int64
}

func sampleCounters(m Member) counterSample {
	rc, cc := m.Region.Counts(), m.Client.Counts()
	return counterSample{
		apiFaults: rc.APIFaults,
		blocked:   rc.Blocked,
		outbid:    rc.Outbid,
		accepted:  rc.Accepted,
		rejected:  cc.RejectedQuotes,
		stale:     cc.StaleServes,
	}
}

// member is a Member plus the controller's bookkeeping for it.
type member struct {
	Member

	state     BreakerState
	openedAt  int // fleet slot the breaker last opened
	probeLeft int // probationary slots left while half-open and active

	// leaky integrators over per-slot counter deltas (rate terms)
	accAPI, accStale, accRejected float64
	// streaks (consecutive-slot terms)
	blockedStreak, outbidStreak int

	score      float64
	last       counterSample
	infeasible bool // Eq. 14 failed here during the current run
	tripped    bool // set when the breaker opened in the current tick
	orphans    []string

	// fleet.health.<id> and fleet.breaker.<id> in the fleet registry
	health, breaker *obs.Gauge
}

// Controller supervises a fleet of members and runs jobs across them.
type Controller struct {
	members []*member
	met     *obs.Registry
	rec     *event.Recorder
	onSlot  func(slot int)

	active        int // index hosting the current leg; -1 between legs
	escalated     bool
	migrations    int
	events        []Event
	pendingImport *checkpoint.Record
	leakedInsts   []string // on-demand instances whose release failed
}

// NewController builds a controller over the members, in order. Member
// order is part of the determinism contract: scoring ties and
// selection ties break toward the earlier member. Each member's client
// gets the controller installed as its Ticker and fallback Delegate.
// Health scoring reads each member's own region and client counts, so
// a member's registry, shared or absent, never steers a decision.
func NewController(cfg Config, members ...Member) (*Controller, error) {
	if len(members) == 0 {
		return nil, errors.New("fleet: no members")
	}
	f := &Controller{met: cfg.Metrics, rec: cfg.Trace, onSlot: cfg.OnSlot, active: -1}
	seen := make(map[string]bool, len(members))
	for i, m := range members {
		if m.Region == nil || m.Client == nil {
			return nil, fmt.Errorf("fleet: member %d has a nil region or client", i)
		}
		if m.Client.Region != m.Region {
			return nil, fmt.Errorf("fleet: member %d's client is bound to a different region", i)
		}
		if m.ID == "" {
			m.ID = fmt.Sprintf("region-%d", i)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("fleet: duplicate member ID %q", m.ID)
		}
		seen[m.ID] = true
		m.Region.SetID(m.ID)
		if cfg.Trace != nil {
			m.Client.SetTrace(cfg.Trace)
		}
		f.members = append(f.members, &member{Member: m, last: sampleCounters(m)})
	}
	for _, m := range f.members {
		m.health = f.met.Gauge("fleet.health." + m.ID)
		m.breaker = f.met.Gauge("fleet.breaker." + m.ID)
		m.Client.Ticker = f.Tick
		m.Client.Delegate = delegate{f}
	}
	return f, nil
}

// now returns the fleet slot. All members tick in lockstep, so any
// member's clock is the fleet clock.
func (f *Controller) now() int { return f.members[0].Region.Now() }

// Breaker reports the named member's breaker state (Closed for an
// unknown ID — the zero value).
func (f *Controller) Breaker(id string) BreakerState {
	for _, m := range f.members {
		if m.ID == id {
			return m.state
		}
	}
	return Closed
}

// Health reports the named member's current health score (0 for an
// unknown ID). Higher is worse; TripScore is the quarantine line.
func (f *Controller) Health(id string) float64 {
	for _, m := range f.members {
		if m.ID == id {
			return m.score
		}
	}
	return 0
}

// Tick advances every member region one slot in lockstep and runs the
// breaker bookkeeping. It is installed as each member client's Ticker,
// so any leg the controller runs drives the whole fleet. The trace is
// treated as exhausted as soon as ANY member's trace is — ending all
// clocks on the same slot keeps the lockstep invariant.
func (f *Controller) Tick() error {
	for _, m := range f.members {
		if m.Region.Now()+1 >= m.Region.Horizon() {
			return cloud.ErrEndOfTrace
		}
	}
	for _, m := range f.members {
		if err := m.Region.Tick(); err != nil {
			return err
		}
	}
	f.retryOrphans()
	f.observe()
	if f.onSlot != nil {
		f.onSlot(f.now())
	}
	if f.active >= 0 && !f.escalated && f.members[f.active].tripped {
		return ErrBreakerOpen
	}
	return nil
}

// Skip advances the fleet n slots with no job in flight.
func (f *Controller) Skip(n int) error {
	for i := 0; i < n; i++ {
		if err := f.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// observe updates every member's health score and breaker timers for
// the slot the fleet just ticked into.
func (f *Controller) observe() {
	slot := f.now()
	decay := 1 - 1/float64(healthWindow)
	for i, m := range f.members {
		cur := sampleCounters(m.Member)
		d := counterSample{
			apiFaults: cur.apiFaults - m.last.apiFaults,
			blocked:   cur.blocked - m.last.blocked,
			outbid:    cur.outbid - m.last.outbid,
			accepted:  cur.accepted - m.last.accepted,
			rejected:  cur.rejected - m.last.rejected,
			stale:     cur.stale - m.last.stale,
		}
		m.last = cur
		m.accAPI = m.accAPI*decay + float64(d.apiFaults)
		m.accStale = m.accStale*decay + float64(d.stale)
		m.accRejected = m.accRejected*decay + float64(d.rejected)
		if d.blocked > 0 {
			m.blockedStreak++
		} else {
			m.blockedStreak = 0
		}
		// The out-bid streak counts provider terminations without an
		// intervening successful launch; it holds through quiet slots.
		if d.accepted > 0 {
			m.outbidStreak = 0
		}
		if d.outbid > 0 {
			m.outbidStreak++
		}
		m.score = healthScore(m)

		m.tripped = false
		switch m.state {
		case Open:
			if slot-m.openedAt >= openSlots {
				m.state = breakerStep(m.state, BreakerInput{QuarantineElapsed: true})
				m.probeLeft = probeSlots
				f.event(slot, "probe", m.ID, fmt.Sprintf("quarantine elapsed after %d slots", openSlots))
				f.traceTransition(m, slot, "quarantine-elapsed")
			}
		case HalfOpen:
			if i == f.active {
				if m.probeLeft > 0 {
					m.probeLeft--
				}
				if m.probeLeft == 0 {
					m.state = breakerStep(m.state, BreakerInput{ProbeSurvived: true})
					m.accAPI, m.accStale, m.accRejected = 0, 0, 0
					f.event(slot, "close", m.ID, fmt.Sprintf("probe survived %d slots", probeSlots))
					f.traceTransition(m, slot, "probe-survived")
				}
			}
		}
		if i == f.active && !f.escalated && m.state != Open {
			if m.blockedStreak >= OutageTrip {
				f.trip(i, fmt.Sprintf("capacity outage: %d consecutive blocked slots", m.blockedStreak))
			} else if m.score >= TripScore {
				f.trip(i, fmt.Sprintf("health score %.4f >= %.4f", m.score, TripScore))
			}
		}
		m.health.Set(m.score)
		m.breaker.Set(float64(m.state))
	}
}

// healthScore folds a member's fault signals into [0,1]: weighted
// saturating terms for API-fault, stale-estimate, and corrupt-quote
// rates plus the blocked-launch and out-bid streaks (DESIGN.md §8).
func healthScore(m *member) float64 {
	sat := func(x, n float64) float64 {
		if x >= n {
			return 1
		}
		return x / n
	}
	return 0.35*sat(m.accAPI, OutageTrip) +
		0.15*sat(m.accStale, 2) +
		0.10*sat(m.accRejected, healthWindow) +
		0.30*sat(float64(m.blockedStreak), OutageTrip) +
		0.10*sat(float64(m.outbidStreak), 2*OutageTrip)
}

// trip opens member i's breaker.
func (f *Controller) trip(i int, why string) {
	m := f.members[i]
	m.state = breakerStep(m.state, BreakerInput{Trip: true})
	m.openedAt = f.now()
	m.tripped = true
	f.met.Counter("fleet.trips").Inc()
	m.breaker.Set(float64(Open))
	f.event(f.now(), "trip", m.ID, why)
	f.traceTransition(m, f.now(), why)
}

// traceTransition emits a BreakerTransition flight-recorder event
// carrying the member's full health vector at transition time — the
// post-mortem record of why the breaker moved. Vec layout:
// [accAPI, accStale, accRejected, blockedStreak, outbidStreak, score].
func (f *Controller) traceTransition(m *member, slot int, why string) {
	if f.rec == nil {
		return
	}
	f.rec.Emit(&event.Event{Kind: event.BreakerTransition, Slot: slot,
		Region: m.ID, Subject: m.state.String(), Cause: why, Value: float64(m.state),
		Vec: []float64{m.accAPI, m.accStale, m.accRejected,
			float64(m.blockedStreak), float64(m.outbidStreak), m.score}})
}

// retryOrphans retries, once per slot, the cancellations that
// exhausted their immediate budget when a leg was drained.
func (f *Controller) retryOrphans() {
	for _, m := range f.members {
		if len(m.orphans) == 0 {
			continue
		}
		keep := m.orphans[:0]
		for _, id := range m.orphans {
			err := m.Region.CancelSpotRequest(id)
			if err != nil && retry.IsTransient(err) {
				keep = append(keep, id)
				continue
			}
			if err == nil {
				f.met.Counter("fleet.orphans.reclaimed").Inc()
				f.event(f.now(), "reclaim", m.ID, "orphaned request "+id+" cancelled")
			}
		}
		m.orphans = keep
	}
}

// cancelRequest releases a request with a bounded immediate retry
// budget (mirroring job's release). False means the cancel is still
// pending — the caller records an orphan retried each subsequent slot.
func (f *Controller) cancelRequest(m *member, id string) bool {
	for i := 0; i < 8; i++ {
		err := m.Region.CancelSpotRequest(id)
		if err == nil || !retry.IsTransient(err) {
			return true
		}
	}
	return false
}

// delegate is the controller's client.FallbackDelegate: it vetoes a
// member client's autonomous on-demand fallback whenever a healthy
// sibling region could take the job instead. When no sibling is
// available the fallback is allowed and counts as the fleet's
// escalation — the controller stops tripping that member so the
// on-demand instance can never be stranded mid-run.
type delegate struct{ f *Controller }

func (d delegate) AllowOnDemand(spec job.Spec, reason client.FallbackReason) bool {
	f := d.f
	if f.active < 0 || f.escalated {
		return true
	}
	if f.pick(f.active) < 0 {
		f.escalated = true
		f.met.Counter("fleet.escalations").Inc()
		f.event(f.now(), "escalate", f.members[f.active].ID,
			fmt.Sprintf("no healthy sibling; client falls back on-demand (%s)", reason))
		return true
	}
	f.met.Counter("fleet.vetoes").Inc()
	f.event(f.now(), "veto", f.members[f.active].ID, string(reason))
	return false
}

// pick selects the healthiest available member, excluding index skip:
// closed breakers beat half-open ones, lower scores beat higher, and
// ties break toward the earlier member. Open or Eq.14-infeasible
// members never qualify. Returns -1 when no member qualifies.
func (f *Controller) pick(skip int) int {
	best := -1
	for i, m := range f.members {
		if i == skip || m.infeasible || m.state == Open {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := f.members[best]
		if m.state != b.state {
			if m.state == Closed {
				best = i
			}
			continue
		}
		if m.score < b.score {
			best = i
		}
	}
	return best
}

// pickAny returns the member with the lowest score regardless of
// breaker state — the escalation host, where only the on-demand pool
// (never gated by spot outages) is used.
func (f *Controller) pickAny() int {
	best := 0
	for i, m := range f.members {
		if m.score < f.members[best].score {
			best = i
		}
	}
	return best
}
