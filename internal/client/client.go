// Package client implements the paper's Fig. 1 architecture: the
// user-side bidding client that glues together the price monitor
// (spot-price history → F_π estimate), the bid calculator (the
// optimal strategies of internal/core), and the job monitor
// (submission, interruption tracking, restart) against the simulated
// cloud region. The experiment harness and the examples drive
// everything through this package, mirroring how the paper's client
// ran against EC2.
package client

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/retry"
	"repro/internal/strategy"
	"repro/internal/timeslot"
)

// DefaultHistoryWindow is two months of history — all Amazon exposed,
// and what the paper's client consumed (§1.2).
const DefaultHistoryWindow = timeslot.Hours(61 * 24)

// Client runs jobs against a region using the paper's strategies.
type Client struct {
	// Region is the simulated EC2 region.
	Region *cloud.Region
	// Volume stores job checkpoints across interruptions.
	Volume *checkpoint.Volume
	// HistoryWindow bounds how much price history the price monitor
	// uses (default: two months).
	HistoryWindow timeslot.Hours
	// Metrics, when non-nil, receives the client runtime's telemetry
	// (client.* metrics; see DESIGN.md §7). Prefer SetMetrics, which
	// also wires the region, the checkpoint volume, and the retry
	// policy. Nil — the default — records nothing and keeps seeded
	// runs bit-identical to an uninstrumented client.
	Metrics *obs.Registry
	// Ticker, when non-nil, replaces Region.Tick in every run loop the
	// client drives. The fleet controller (internal/fleet) installs one
	// that advances all of its regions in lockstep and runs circuit-
	// breaker bookkeeping between slots; an error it returns (other
	// than cloud.ErrEndOfTrace, which ends the run normally) aborts the
	// run and propagates to the caller. Nil — the default — ticks only
	// the client's own region, exactly as before.
	Ticker func() error
	// Delegate, when non-nil, is consulted before the client falls
	// back to on-demand on its own (degenerate bid, exhausted submit
	// budget, stall watchdog). A veto returns ErrFallbackVetoed to the
	// caller instead — the fleet controller vetoes when another healthy
	// region can take the job. Nil — the default — keeps the client
	// fully autonomous.
	Delegate FallbackDelegate

	// lastGood caches the most recent successfully fetched F_π
	// estimate per type: the price monitor's degraded-mode fallback
	// when live history fetches exhaust their retry budget. It is kept
	// apart from monitors because it must outlive a monitor swap on a
	// window or region change.
	mu       sync.Mutex
	lastGood map[instances.Type]cachedECDF
	// monitors holds the per-type windowed ECDFs every successful
	// history fetch loads; see monitor.go.
	monitors map[instances.Type]*priceMonitor
	// active is the spot tracker of the run in flight (nil outside
	// runs and for on-demand runs). A controller that aborted a run
	// via its Ticker reads the job's progress from here.
	active *job.Tracker

	// trace is the flight recorder threaded through the client's whole
	// run surface (SetTrace). Nil — the default — records nothing and
	// keeps seeded runs bit-identical to an uninstrumented client.
	trace *event.Recorder

	counts Counts // kept with or without a registry
}

// Counts are the client's own tallies of the price-monitor degradations
// a health score reads. They grow at the sites that feed the
// same-named registry counters, whether or not a registry is installed.
type Counts struct {
	// RejectedQuotes counts non-positive quotes discarded from fetched
	// histories (client.quotes.rejected).
	RejectedQuotes int64
	// StaleServes counts fetches answered from the last good ECDF
	// after the retry budget ran out (client.ecdf.stale_serves).
	StaleServes int64
}

// Counts returns the client's degradation tallies so far.
func (c *Client) Counts() Counts { return c.counts }

// FallbackReason tells a FallbackDelegate why the client wants to
// abandon its spot attempt and finish on-demand.
type FallbackReason string

const (
	// ReasonDegenerateBid: degraded telemetry priced the optimum at a
	// non-positive bid the cloud would reject.
	ReasonDegenerateBid FallbackReason = "degenerate-bid"
	// ReasonSubmitExhausted: the spot submission retry budget ran out.
	ReasonSubmitExhausted FallbackReason = "submit-exhausted"
	// ReasonStall: the stall watchdog fired on a bid priced from
	// degraded telemetry. The spot request is already cancelled when
	// the delegate is consulted.
	ReasonStall FallbackReason = "stall"
)

// FallbackDelegate lets an attached controller veto the client's
// autonomous on-demand fallback. AllowOnDemand reports whether the
// client should run the fallback itself; a false return surfaces
// ErrFallbackVetoed to the caller, which then owns the job's fate
// (e.g. migrating it to another region).
type FallbackDelegate interface {
	AllowOnDemand(spec job.Spec, reason FallbackReason) bool
}

// ErrFallbackVetoed reports that the client wanted to fall back to
// on-demand but its Delegate vetoed the substitution. The job's spot
// request, if any was ever submitted, is cancelled; progress is
// recoverable through Active and the checkpoint volume.
var ErrFallbackVetoed = errors.New("client: on-demand fallback vetoed by delegate")

// cachedECDF is the last good F_π estimate for one type: the monitor
// the last successful fetch loaded, snapshotted on first stale use. The
// monitor's window mutates only on a successful fetch, which replaces
// this entry — never between a failed fetch and the stale serve that
// follows it — so deferring the snapshot to first degraded use is
// observably identical to eagerly copying on every success, and the
// fetch path stays allocation-free.
type cachedECDF struct {
	ecdf *dist.Empirical // snapshot of mon's window, nil until first stale use
	mon  *priceMonitor   // monitor of the last successful fetch
	slot int
}

// New returns a client for the region with a fresh checkpoint volume.
func New(region *cloud.Region) (*Client, error) {
	if region == nil {
		return nil, errors.New("client: nil region")
	}
	return &Client{
		Region:        region,
		Volume:        checkpoint.NewVolume(),
		HistoryWindow: DefaultHistoryWindow,
		lastGood:      make(map[instances.Type]cachedECDF),
	}, nil
}

// SetMetrics installs one registry across the client's whole
// observable surface: the client runtime itself, the region's market
// hooks, the checkpoint volume, and the retry policy. One call mirrors
// chaos.Injector.Arm for the fault surface.
func (c *Client) SetMetrics(m *obs.Registry) {
	c.Metrics = m
	if c.Region != nil {
		c.Region.SetMetrics(m)
	}
	if c.Volume != nil {
		c.Volume.SetMetrics(m)
	}
}

// SetTrace installs one flight recorder across the client's whole run
// surface: the client runtime itself (leg spans, fallback events), the
// region's market hooks, the checkpoint volume (migration events,
// slot-stamped from the region's clock), and the retry policy. The
// trace counterpart of SetMetrics; nil removes the hooks.
func (c *Client) SetTrace(rec *event.Recorder) {
	c.trace = rec
	if c.Region != nil {
		c.Region.SetTrace(rec)
	}
	if c.Volume != nil {
		if rec == nil {
			c.Volume.SetTrace(nil, nil)
		} else {
			c.Volume.SetTrace(rec, c.Region.Now)
		}
	}
}

// Trace reports the installed flight recorder (nil when
// uninstrumented).
func (c *Client) Trace() *event.Recorder { return c.trace }

// policy returns the client's API fault-handling policy: retry.Default
// (4 attempts, capped exponential backoff, deterministic jitter) with
// the metrics registry and flight recorder threaded through.
func (c *Client) policy() retry.Policy {
	p := retry.Default()
	p.Metrics = c.Metrics
	if c.trace != nil {
		p.Trace = c.trace
		p.TraceSlot = c.Region.Now
	}
	return p
}

// Telemetry annotates a Report with the degradation the client
// absorbed while producing it — which faults fired, and whether the
// run's F_π estimate was live or stale.
type Telemetry struct {
	// Stale reports that the price monitor served its last good ECDF
	// because live history fetches exhausted their retry budget.
	Stale bool
	// ECDFAgeSlots is how many slots old the served estimate was at
	// bid time (0 when live).
	ECDFAgeSlots int
	// FetchRetries counts transient PriceHistory failures absorbed by
	// the retry policy.
	FetchRetries int
	// SubmitRetries counts transient submission failures absorbed.
	SubmitRetries int
	// RejectedQuotes counts history entries the price monitor
	// discarded as invalid (non-positive or NaN — spot prices have a
	// positive floor, so these can only be corruption).
	RejectedQuotes int
	// FellBackOnDemand reports the spot submission budget was
	// exhausted and the job ran on-demand instead (§3.2's "default to
	// on-demand" playbook applied to API failure).
	FellBackOnDemand bool
	// Stalled reports the stall watchdog fired: a bid priced from
	// degraded telemetry made no progress for DefaultStallSlots, so the
	// remainder of the job ran on-demand.
	Stalled bool
	// Rebids counts the mid-run revisions an adaptive strategy drove:
	// each one released the running leg and resubmitted the remainder
	// under a new decision (the league table's migration column).
	Rebids int
	// Metrics is the client registry's cumulative snapshot taken when
	// the report was produced — the run's metrics summary. Nil unless
	// a registry is installed (SetMetrics); when one client runs
	// several jobs, each report's snapshot includes everything
	// recorded up to that point.
	Metrics *obs.Snapshot
}

// Degraded reports whether any degradation was observed at all.
func (t Telemetry) Degraded() bool {
	return t.Stale || t.FetchRetries > 0 || t.SubmitRetries > 0 ||
		t.RejectedQuotes > 0 || t.FellBackOnDemand || t.Stalled
}

// Skip advances the region n slots without doing anything — used to
// submit jobs "at random times of the day" as in §7.1.
func (c *Client) Skip(n int) error {
	for i := 0; i < n; i++ {
		if err := c.tick(); err != nil {
			return err
		}
	}
	return nil
}

// tick advances simulated time one slot: through the Ticker when a
// controller installed one, directly on the region otherwise.
func (c *Client) tick() error {
	if c.Ticker != nil {
		return c.Ticker()
	}
	return c.Region.Tick()
}

// Active returns the tracker of the run currently (or most recently)
// in flight, nil when the last run never acquired resources. Every
// public Run entrypoint clears it up front, so a run that fails before
// submission can never expose a predecessor's tracker. A controller
// whose Ticker aborted a run reads the job's remaining work from here
// before migrating it.
func (c *Client) Active() *job.Tracker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// setActive records (or, with nil, clears) the in-flight spot tracker.
func (c *Client) setActive(t *job.Tracker) {
	c.mu.Lock()
	c.active = t
	c.mu.Unlock()
}

// Market builds the bid-calculator view of an instance type's market:
// the ECDF of the price-monitor window plus the on-demand ceiling.
//
// The returned Market.Price is a live view of the type's price monitor,
// not a copy (a stale serve is the exception: it snapshots the last
// good window). It reflects the window as of this call and changes on
// the next Market fetch of the same type. Consumers use the view
// transiently — compute the bid, drop the Market — which every run loop
// in this package does; a caller that needs an estimate frozen across
// later fetches snapshots it via dist.Dist's accessors or re-fetches at
// decision time.
func (c *Client) Market(t instances.Type) (core.Market, error) {
	m, _, err := c.market(t)
	return m, err
}

// market is Market plus the telemetry of the fetch: history fetches
// retry transient faults under the client's policy, and when the
// budget is exhausted the price monitor degrades to the last good
// ECDF rather than failing the run.
func (c *Client) market(t instances.Type) (core.Market, Telemetry, error) {
	var tel Telemetry
	spec, err := instances.Lookup(t)
	if err != nil {
		return core.Market{}, tel, err
	}
	window := c.HistoryWindow
	if window == 0 {
		window = DefaultHistoryWindow
	}
	slot := timeslot.Hours(float64(c.Region.Grid().Slot))
	var mon *priceMonitor // the monitor this fetch loaded
	st, ferr := c.policy().Do("price-history", func() error {
		hist, err := c.Region.PriceHistory(t, window)
		if err != nil {
			return err
		}
		// Spot prices have a positive floor, so non-positive (or NaN)
		// quotes can only be corruption: discard them rather than let a
		// single zero drag the ψ-optimum to a degenerate bid.
		prices := hist.Prices
		rejected := 0
		for _, p := range prices {
			if !(p > 0) {
				rejected++
			}
		}
		if rejected > 0 {
			valid := make([]float64, 0, len(prices)-rejected)
			for _, p := range prices {
				if p > 0 {
					valid = append(valid, p)
				}
			}
			if len(valid) == 0 {
				return retry.Transient(errors.New("client: price history contains no valid quotes"))
			}
			prices = valid
		}
		m, err := c.monitorECDF(t, window, prices, rejected == 0 && c.Region.Injector() == nil)
		if err != nil {
			// A degraded feed can in principle deliver an unusable
			// window; treat it like a failed fetch and retry.
			return retry.Transient(err)
		}
		tel.RejectedQuotes += rejected
		if rejected > 0 {
			c.counts.RejectedQuotes += int64(rejected)
			c.Metrics.Counter("client.quotes.rejected").Add(int64(rejected))
		}
		mon = m
		return nil
	})
	tel.FetchRetries = st.Retries()
	c.Metrics.Counter("client.fetch.retries").Add(int64(st.Retries()))
	if ferr != nil {
		if !retry.IsTransient(ferr) {
			return core.Market{}, tel, ferr
		}
		// Budget exhausted: fall back on the last good estimate,
		// snapshotted on first degraded use. The window has not changed
		// since the fetch it caches (only a successful fetch loads it,
		// and that fetch replaces the entry), so the late copy equals an
		// eager one taken at the fetch.
		c.mu.Lock()
		cached, ok := c.lastGood[t]
		if ok && cached.ecdf == nil {
			snap, serr := cached.mon.win.Snapshot()
			if serr != nil {
				ok = false
			} else {
				cached.ecdf = snap
				c.lastGood[t] = cached
			}
		}
		c.mu.Unlock()
		if !ok {
			return core.Market{}, tel, ferr
		}
		tel.Stale = true
		tel.ECDFAgeSlots = c.Region.Now() - cached.slot
		c.counts.StaleServes++
		c.Metrics.Counter("client.ecdf.stale_serves").Inc()
		if c.Metrics != nil {
			c.Metrics.Histogram("client.ecdf.age_slots", obs.SlotBuckets).
				Observe(float64(tel.ECDFAgeSlots))
		}
		return core.Market{Price: cached.ecdf, OnDemand: spec.OnDemand, Slot: slot}, tel, nil
	}
	c.mu.Lock()
	if c.lastGood == nil { // zero-value Client, constructed without New
		c.lastGood = make(map[instances.Type]cachedECDF)
	}
	c.lastGood[t] = cachedECDF{mon: mon, slot: c.Region.Now()}
	c.mu.Unlock()
	return core.Market{Price: mon.win, OnDemand: spec.OnDemand, Slot: slot}, tel, nil
}

// Report pairs the model's predictions with the measured outcome of
// one job run — the two bars of every Fig. 5–7 comparison.
type Report struct {
	// Strategy names the bidding strategy ("one-time",
	// "persistent", "percentile-90", "on-demand", ...).
	Strategy string
	// BidPrice is the submitted bid (0 for on-demand).
	BidPrice float64
	// Analytic holds the model's predictions at that bid. Zero for
	// on-demand runs.
	Analytic core.Bid
	// Outcome is what actually happened on the simulated cloud.
	Outcome job.Outcome
	// Telemetry records the degradation absorbed during the run
	// (stale price estimates, retries, on-demand fallback). Zero on a
	// fault-free substrate.
	Telemetry Telemetry
}

// RunOneTime prices the job with Prop. 4 and runs it on a one-time
// spot request.
func (c *Client) RunOneTime(spec job.Spec) (Report, error) {
	return c.RunStrategy(spec, strategy.OneTime{})
}

// RunPersistent prices the job with Prop. 5 and runs it on a
// persistent spot request.
func (c *Client) RunPersistent(spec job.Spec) (Report, error) {
	return c.RunStrategy(spec, strategy.Persistent{})
}

// RunPercentile bids the q-th percentile of the observed prices — the
// §7.1 "bid the 90th percentile" baseline.
func (c *Client) RunPercentile(spec job.Spec, q float64, kind cloud.RequestKind) (Report, error) {
	return c.RunStrategy(spec, strategy.Percentile{Q: q, Kind: kind})
}

// RunFixedBid runs the job at an explicit bid price (e.g. the
// best-offline-in-retrospect baseline).
func (c *Client) RunFixedBid(name string, spec job.Spec, price float64, kind cloud.RequestKind) (Report, error) {
	return c.RunStrategy(spec, strategy.FixedBid{Label: name, Price: price, Kind: kind})
}

// RunOnDemand runs the job on an on-demand instance — the cost
// baseline of every figure.
func (c *Client) RunOnDemand(spec job.Spec) (Report, error) {
	c.setActive(nil)
	if c.trace != nil {
		leg := c.trace.BeginSpan("leg:on-demand", spec.ID, c.Region.ID(), c.Region.Now())
		defer func() { c.trace.EndSpan(leg, c.Region.Now()) }()
	}
	tracker, err := job.NewOnDemandJob(c.Region, spec)
	if err != nil {
		return Report{}, err
	}
	c.setActive(tracker)
	out, err := job.Run(c.tick, tracker, nil)
	if err != nil {
		return Report{}, err
	}
	if c.trace != nil {
		c.trace.Emit(&event.Event{Kind: event.LegComplete, Slot: c.Region.Now(),
			Region: c.Region.ID(), Job: spec.ID, Subject: "on-demand", Value: out.Cost})
	}
	rep := Report{Strategy: "on-demand", Outcome: out}
	c.attachMetrics(&rep)
	return rep, nil
}

// attachMetrics stamps the report with the client registry's current
// snapshot — the per-report metrics summary. No-op without a registry.
func (c *Client) attachMetrics(rep *Report) {
	if c.Metrics == nil {
		return
	}
	snap := c.Metrics.Snapshot()
	rep.Telemetry.Metrics = &snap
}

func (c *Client) runSpot(strategy string, spec job.Spec, analytic core.Bid, kind cloud.RequestKind, tel Telemetry) (Report, error) {
	c.setActive(nil)
	span := c.Metrics.StartSpan("client.job_slots", c.Region.Now())
	if c.trace != nil {
		// The deferred end covers error exits too: an aborted leg's span
		// closes at the abort slot instead of dangling open under the
		// job's root span.
		leg := c.trace.BeginSpan("leg:"+strategy, spec.ID, c.Region.ID(), c.Region.Now())
		defer func() { c.trace.EndSpan(leg, c.Region.Now()) }()
	}
	// Degrade gracefully via the existing on-demand path (§3.2's
	// playbook). The strategy keeps its name; Telemetry records the
	// substitution, and BidPrice stays 0 — no bid was ever placed.
	fallback := func(reason FallbackReason) (Report, error) {
		if err := c.fallBack(spec, reason); err != nil {
			return Report{}, err
		}
		rep, err := c.RunOnDemand(spec)
		if err != nil {
			return Report{}, err
		}
		rep.Strategy = strategy
		rep.Analytic = analytic
		tel.FellBackOnDemand = true
		rep.Telemetry = tel
		span.End(c.Region.Now())
		c.attachMetrics(&rep)
		return rep, nil
	}
	if !(analytic.Price > 0) {
		// Degraded or corrupted telemetry can push the computed
		// optimum to a degenerate (non-positive) bid the cloud would
		// reject; a bid that can never run is as good as no bid.
		c.Metrics.Counter("client.bids.degenerate").Inc()
		return fallback(ReasonDegenerateBid)
	}
	if c.Metrics != nil {
		c.Metrics.Histogram("client.bid_usd", obs.PriceBuckets).Observe(analytic.Price)
	}
	tracker, err := c.submitSpot(spec, analytic.Price, kind, &tel)
	if err != nil {
		if !retry.IsTransient(err) {
			return Report{}, err
		}
		// Submission budget exhausted.
		c.Metrics.Counter("client.submit.exhausted").Inc()
		return fallback(ReasonSubmitExhausted)
	}
	c.setActive(tracker)
	out, err := c.superviseSpot(tracker, spec, &tel)
	if err != nil {
		return Report{}, err
	}
	span.End(c.Region.Now())
	if c.trace != nil {
		// The fallback path's LegComplete came from the nested
		// RunOnDemand — exactly one per run either way.
		c.trace.Emit(&event.Event{Kind: event.LegComplete, Slot: c.Region.Now(),
			Region: c.Region.ID(), Job: spec.ID, Subject: strategy, Value: out.Cost})
	}
	rep := Report{Strategy: strategy, BidPrice: analytic.Price, Analytic: analytic, Outcome: out, Telemetry: tel}
	c.attachMetrics(&rep)
	return rep, nil
}

// fallBack is §3.2's escape hatch, taken for the given reason: it asks
// the Delegate whether the job may finish on-demand, counts the
// decision, and records the FallbackOnDemand event. A veto returns
// ErrFallbackVetoed, and the caller hands the job back.
func (c *Client) fallBack(spec job.Spec, reason FallbackReason) error {
	if c.Delegate != nil && !c.Delegate.AllowOnDemand(spec, reason) {
		c.Metrics.Counter("client.fallback.vetoed").Inc()
		return fmt.Errorf("%s: %w", reason, ErrFallbackVetoed)
	}
	c.Metrics.Counter("client.fallback.on_demand").Inc()
	c.trace.Emit(&event.Event{Kind: event.FallbackOnDemand, Slot: c.Region.Now(),
		Region: c.Region.ID(), Job: spec.ID, Cause: string(reason)})
	return nil
}

// remainder is the work a leg leaves to its successor: what the
// tracker still owes, plus one recovery t_r when the leg ran — the
// successor must restore the checkpointed state first.
func remainder(spec job.Spec, leg *job.Tracker, out job.Outcome) timeslot.Hours {
	r := leg.Remaining()
	if out.RunTime > 0 {
		r += spec.Recovery
	}
	return r
}

// finishOnDemand runs the remainder of leg, whose outcome is out, on
// an on-demand instance under the job ID plus suffix, and returns the
// on-demand phase's outcome.
func (c *Client) finishOnDemand(spec job.Spec, leg *job.Tracker, out job.Outcome, suffix string) (job.Outcome, error) {
	od := spec
	od.ID += suffix
	od.Exec = remainder(spec, leg, out)
	od.Recovery = 0 // on-demand never gets interrupted
	tracker, err := job.NewOnDemandJob(c.Region, od)
	if err != nil {
		return job.Outcome{}, err
	}
	return job.Run(c.tick, tracker, nil)
}

// DefaultStallSlots is the stall watchdog's window: four hours of
// five-minute slots with zero progress before a degraded-telemetry bid
// is abandoned.
const DefaultStallSlots = 48

// superviseSpot runs the submitted job to completion. Jobs priced from
// clean telemetry are never watched: legitimate idling is part of the
// persistent strategy. Jobs priced from degraded telemetry get a stall
// watchdog: corrupted quotes can produce a bid below the real price
// floor, which the market never serves, so a job with no progress for
// DefaultStallSlots cancels its request and finishes on-demand (§3.2's
// completion-control playbook).
func (c *Client) superviseSpot(tracker *job.Tracker, spec job.Spec, tel *Telemetry) (job.Outcome, error) {
	if !tel.Degraded() {
		return job.Run(c.tick, tracker, nil)
	}
	idle := 0
	stalled := false
	out, err := job.Run(c.tick, tracker, func() (bool, error) {
		if s := tracker.Status(); s == job.Pending || s == job.Idle {
			idle++
		} else {
			idle = 0
		}
		if idle < DefaultStallSlots {
			return false, nil
		}
		// Stalled: release the request first — an uncancelled request
		// could still launch later and bill alongside the fallback. If
		// even the cancellation budget is exhausted, keep supervising
		// and try again a window later rather than risk paying twice.
		released, err := c.releaseLeg(tracker)
		if !released {
			idle = 0
		}
		stalled = released
		return released, err
	})
	if err != nil || !stalled {
		return out, err
	}
	// The request is already released; on a veto the controller owns
	// the remainder (tracker progress is reachable via Active).
	if err := c.fallBack(spec, ReasonStall); err != nil {
		return job.Outcome{}, err
	}
	tel.Stalled = true
	tel.FellBackOnDemand = true
	c.Metrics.Counter("client.stall_fires").Inc()
	fb, err := c.finishOnDemand(spec, tracker, out, "-stall-fallback")
	if err != nil {
		return job.Outcome{}, err
	}
	return job.Merge(out, fb), nil
}

// submitSpot submits the job's spot request, retrying transient
// (chaos-injected) API failures under the client's policy.
func (c *Client) submitSpot(spec job.Spec, bid float64, kind cloud.RequestKind, tel *Telemetry) (*job.Tracker, error) {
	var tracker *job.Tracker
	st, err := c.policy().Do("submit", func() error {
		tk, err := job.NewSpotJob(c.Region, c.Volume, spec, bid, kind)
		if err != nil {
			return err
		}
		tracker = tk
		return nil
	})
	tel.SubmitRetries += st.Retries()
	c.Metrics.Counter("client.submit.retries").Add(int64(st.Retries()))
	return tracker, err
}
