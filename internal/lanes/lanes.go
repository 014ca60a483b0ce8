// Package lanes is the struct-of-arrays fleet batch engine: it
// advances every (market, tenant) lane of a simulated spot fleet in
// one cache-friendly pass, with contiguous arrays for bid, remaining
// work, accrued cost, and lane state instead of the per-client object
// graph the single-job runtime (internal/client + internal/job) walks.
// It exists for fleets where 10⁴–10⁶ simulated bidders are the
// market, where the per-client slot loop — a monitored market fetch
// per tenant per slot, tens of µs each (client.market in
// BENCH.json) — is orders of magnitude too slow. Lanes fetch no
// markets: each market's Prop. 4/5 quotes are solved once per quote
// epoch on a window that slides the epoch's slots in as one batch,
// and a lane bids its submission epoch's quote. The same engine runs
// the §7.1 experiments' arms (Figures 5 and 6), which price their own
// bids and hand the engine explicit lanes through NewEngine.
//
// Semantics are not approximated: one lane kernel (advance) is the
// exact fusion of cloud.Region.Tick (out-bid termination → launch →
// per-slot billing, in that order) and job.Tracker.Observe (restore,
// recovery-first work consumption, the 1e-12 completion epsilon) for
// one spot request on a clean region, and it reproduces job.Run's
// Outcome bit for bit — including the float-summation order of
// multi-instance billing. Tick and Run both drive that one kernel,
// which holds a lane's state in locals across a whole range of slots.
// The equivalence is pinned by tests that replay individual lanes
// through the real region + tracker.
//
// Determinism: lanes are advanced in parallel over contiguous index
// shards (sched.Shards), and every observable byte is independent of
// GOMAXPROCS because (1) a lane's randomness comes from a splitmix64
// stream seeded by its index, (2) the kernel touches only lane-local
// state plus read-only market arrays, and (3) reports reduce over the
// lane arrays serially in index order after the shards join. Running
// the engine slot-major (Tick) or lane-major (Run) produces identical
// arrays for the same reason: the per-lane op sequence is the same
// either way.
package lanes

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/sched"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// ErrEndOfTrace reports that Tick has consumed every slot of the
// market traces; the fleet's final state is readable via Report.
var ErrEndOfTrace = errors.New("lanes: end of trace")

// Lane request kinds, mirroring cloud.RequestKind for the two
// strategies the paper prices (Prop. 4 one-time, Prop. 5 persistent).
const (
	KindOneTime uint8 = iota
	KindPersistent
)

// Lane states, mirroring job.Status.
const (
	lanePending uint8 = iota
	laneRunning
	laneIdle
	laneDone
	laneFailed
)

// Config sizes a fleet simulation.
type Config struct {
	// Types lists the instance types; one market (price trace +
	// quote grid) is built per type and lanes round-robin over them.
	Types []instances.Type
	// Lanes is the number of tenants in the fleet.
	Lanes int
	// Days is the trace length (default 61 — the paper's two-month
	// window).
	Days int
	// Seed drives trace generation and every per-lane stream.
	Seed int64
	// Exec is t_s, each tenant's execution time.
	Exec timeslot.Hours
	// Recovery is t_r, the per-interruption recovery time.
	Recovery timeslot.Hours
	// Window is the price-monitor window the quote grid reads
	// (default two months).
	Window timeslot.Hours
	// QuoteEvery is the slot stride of the quote grid: Prop. 4/5
	// optima are computed once per epoch per market from the live
	// windowed ECDF and shared by every lane submitting in that
	// epoch (default 288 = daily).
	QuoteEvery int
	// DwellSlots is the trace regime persistence (0 = the trace
	// generator's default).
	DwellSlots int
}

func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = 61
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Window == 0 {
		c.Window = timeslot.Hours(61 * 24)
	}
	if c.QuoteEvery == 0 {
		c.QuoteEvery = 288
	}
	return c
}

func (c Config) validate() error {
	if len(c.Types) == 0 {
		return errors.New("lanes: no instance types")
	}
	if c.Lanes < 1 {
		return fmt.Errorf("lanes: lane count %d < 1", c.Lanes)
	}
	// The NaN-rejecting comparisons and the infinity tests keep a
	// non-finite duration from reaching a quote solve or a slot count.
	if !(c.Exec > 0) || math.IsInf(float64(c.Exec), 0) {
		return fmt.Errorf("lanes: Exec (execution time) %v must be positive and finite", float64(c.Exec))
	}
	if !(c.Recovery >= 0) || math.IsInf(float64(c.Recovery), 0) {
		return fmt.Errorf("lanes: Recovery (recovery time) %v must be non-negative and finite", float64(c.Recovery))
	}
	if !(c.Window > 0) || math.IsInf(float64(c.Window), 0) {
		return fmt.Errorf("lanes: Window (quote window) %v must be positive and finite", float64(c.Window))
	}
	if c.Days < 1 || c.QuoteEvery < 1 {
		return fmt.Errorf("lanes: bad grid (days %d, quote stride %d)", c.Days, c.QuoteEvery)
	}
	return nil
}

// quote is one epoch's Prop. 4/5 optima for a market.
type quote struct {
	oneTime    float64
	persistent float64
}

// marketData is one instance type's read-only market: the price
// series and the on-demand price its report rows are measured
// against. Shared by every lane of the market; never written after
// construction.
type marketData struct {
	typ      instances.Type
	onDemand float64
	prices   []float64
}

// Market is one explicit spot market: an instance type, which labels
// the market's report rows and supplies their on-demand price, and the
// price series its lanes run against, one price per five-minute slot.
type Market struct {
	Type   instances.Type
	Prices []float64
}

// Lane is one explicit lane: a single spot request for one job,
// submitted to one market at one slot.
type Lane struct {
	// Market indexes the engine's markets.
	Market int
	// Kind is KindOneTime or KindPersistent.
	Kind uint8
	// Bid is the submitted bid, USD per instance-hour; it must be
	// positive, as the region's submission check requires.
	Bid float64
	// Start is the submission slot; the lane first observes Start+1.
	Start int
	// Exec is t_s, the job's execution time.
	Exec timeslot.Hours
	// Recovery is t_r, the job's per-interruption recovery time.
	Recovery timeslot.Hours
}

// Engine is the struct-of-arrays fleet state. All per-lane fields are
// parallel arrays indexed by lane — the batch tick streams through
// them contiguously instead of chasing per-client pointers.
type Engine struct {
	slotHours float64
	horizon   int
	markets   []marketData

	// Immutable lane parameters.
	market   []int32   // market index
	kind     []uint8   // KindOneTime | KindPersistent
	bid      []float64 // submitted bid, USD per instance-hour
	start    []int32   // submission slot; first observed slot is start+1
	recovery []float64 // t_r hours charged per restore

	// Mutable lane state, advanced only by the lane kernel (advance).
	status     []uint8
	active     []bool    // the spot instance is running (request Active)
	begun      []bool    // ever launched (tracker "started")
	restore    []bool    // next running slot must restore from checkpoint
	remaining  []float64 // execution hours still owed
	pendingRec []float64 // recovery hours owed before useful work
	instCost   []float64 // bill of the currently running instance
	cost       []float64 // sum of terminated instances' bills, launch order
	recHours   []float64 // recovery hours consumed
	runSlots   []int32
	idleSlots  []int32
	intr       []int32 // provider terminations (request Interruptions)
	finish     []int32 // completion/failure slot, -1 while live

	slot int // last settled slot in Tick mode
}

// New builds the fleet: one market per type (traces generated through
// the memoized generator, quote grids solved on a windowed ECDF that
// slides one batch of slots in per quote epoch), then one lane per
// tenant, seeded lane by lane from the lane-index RNG streams, and
// hands both to NewEngine. Markets build in parallel — each owns its
// slot in the markets array, so the build is deterministic.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	horizon := cfg.Days * int(grid.SlotsPerHour()) * 24
	if horizon <= 2*cfg.QuoteEvery {
		return nil, fmt.Errorf("lanes: horizon %d too short for quote stride %d", horizon, cfg.QuoteEvery)
	}

	// Deduplicate types preserving order, mirroring the experiment
	// harness's regionFor.
	seen := map[instances.Type]bool{}
	var types []instances.Type
	for _, t := range cfg.Types {
		if !seen[t] {
			seen[t] = true
			types = append(types, t)
		}
	}
	markets := make([]Market, len(types))
	quotes := make([][]quote, len(types))
	err := sched.Runs(len(types), func(i int) (err error) {
		markets[i], quotes[i], err = buildMarket(cfg, i, types[i], grid, horizon)
		return err
	})
	if err != nil {
		return nil, err
	}

	ls := make([]Lane, cfg.Lanes)
	maxStagger := horizon/2 - cfg.QuoteEvery
	serr := sched.Shards(len(ls), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			mi, kind, startSlot, bidF := laneParams(cfg, i, maxStagger, len(markets))
			q := quotes[mi][startSlot/cfg.QuoteEvery]
			base := q.oneTime
			if kind == KindPersistent {
				base = q.persistent
			}
			ls[i] = Lane{Market: mi, Kind: kind, Bid: base * bidF, Start: startSlot, Exec: cfg.Exec, Recovery: cfg.Recovery}
		}
		return nil
	})
	if serr != nil {
		return nil, serr
	}
	return NewEngine(markets, ls)
}

// NewEngine builds an engine over explicit markets and lanes. It is
// the one construction path: New derives its markets and lanes from a
// Config and hands them here, and callers that price their own bids
// (the §7.1 experiments) build lanes directly. Every market must cover
// the same number of slots, which becomes the engine's horizon. The
// price series are shared, not copied, and must not change while the
// engine lives.
func NewEngine(markets []Market, lanes []Lane) (*Engine, error) {
	if len(markets) == 0 {
		return nil, errors.New("lanes: no markets")
	}
	if len(lanes) == 0 {
		return nil, errors.New("lanes: no lanes")
	}
	e := &Engine{
		slotHours: float64(timeslot.DefaultSlot),
		horizon:   len(markets[0].Prices),
		markets:   make([]marketData, len(markets)),
	}
	for mi, m := range markets {
		spec, err := instances.Lookup(m.Type)
		if err != nil {
			return nil, err
		}
		if len(m.Prices) != e.horizon {
			return nil, fmt.Errorf("lanes: market %d (%s) has %d slots, market 0 has %d", mi, m.Type, len(m.Prices), e.horizon)
		}
		e.markets[mi] = marketData{typ: m.Type, onDemand: spec.OnDemand, prices: m.Prices}
	}

	n := len(lanes)
	e.market = make([]int32, n)
	e.kind = make([]uint8, n)
	e.bid = make([]float64, n)
	e.start = make([]int32, n)
	e.recovery = make([]float64, n)
	e.status = make([]uint8, n)
	e.active = make([]bool, n)
	e.begun = make([]bool, n)
	e.restore = make([]bool, n)
	e.remaining = make([]float64, n)
	e.pendingRec = make([]float64, n)
	e.instCost = make([]float64, n)
	e.cost = make([]float64, n)
	e.recHours = make([]float64, n)
	e.runSlots = make([]int32, n)
	e.idleSlots = make([]int32, n)
	e.intr = make([]int32, n)
	e.finish = make([]int32, n)
	for i, l := range lanes {
		switch {
		case l.Market < 0 || l.Market >= len(markets):
			return nil, fmt.Errorf("lanes: lane %d: market %d outside [0, %d)", i, l.Market, len(markets))
		case l.Kind != KindOneTime && l.Kind != KindPersistent:
			return nil, fmt.Errorf("lanes: lane %d: unknown kind %d", i, l.Kind)
		case !(l.Bid > 0):
			return nil, fmt.Errorf("lanes: lane %d: non-positive bid %v", i, l.Bid)
		case l.Start < 0 || l.Start >= e.horizon:
			return nil, fmt.Errorf("lanes: lane %d: start slot %d outside [0, %d)", i, l.Start, e.horizon)
		case !(l.Exec > 0):
			return nil, fmt.Errorf("lanes: lane %d: execution time %v must be positive", i, float64(l.Exec))
		case !(l.Recovery >= 0):
			return nil, fmt.Errorf("lanes: lane %d: negative recovery time %v", i, float64(l.Recovery))
		}
		e.market[i] = int32(l.Market)
		e.kind[i] = l.Kind
		e.bid[i] = l.Bid
		e.start[i] = int32(l.Start)
		e.recovery[i] = float64(l.Recovery)
		e.remaining[i] = float64(l.Exec)
		e.finish[i] = -1
	}
	return e, nil
}

// laneParams derives lane i's immutable parameters from its RNG
// stream. Draw order is part of the determinism contract (stagger,
// then bid spread); TestQuoteGridMatchesSnapshots replays the same
// function to check every lane's bid against a fresh snapshot quote.
func laneParams(cfg Config, i, maxStagger, markets int) (market int, kind uint8, start int, bidF float64) {
	r := newLaneRNG(cfg.Seed, i)
	market = i % markets
	kind = uint8(i % 2)
	start = cfg.QuoteEvery + r.intn(maxStagger)
	// Tenant heterogeneity: a ±10% spread on the epoch's optimal bid
	// — under-bidders idle more, over-bidders pay more, both exercise
	// every kernel path.
	bidF = 0.9 + 0.2*r.float64()
	return market, kind, start, bidF
}

// buildMarket generates market mi's price series and walks its quote
// epochs: at each it slides the slots since the last epoch into the
// live windowed ECDF as one batch and solves the Prop. 4/5 bids on the
// window. The window then holds exactly what pushing every slot would
// leave, at the cost of one merge per epoch instead of two memmoves per
// slot, and the branch-free quantile/expectation queries on the shared
// window replace one O(n log n) snapshot per lane with two bid solves
// per epoch.
func buildMarket(cfg Config, mi int, typ instances.Type, grid timeslot.Grid, horizon int) (Market, []quote, error) {
	spec, err := instances.Lookup(typ)
	if err != nil {
		return Market{}, nil, err
	}
	tr, err := trace.Generate(typ, trace.GenOptions{
		Days:       cfg.Days,
		Seed:       cfg.Seed + int64(mi)*1009,
		DwellSlots: cfg.DwellSlots,
	})
	if err != nil {
		return Market{}, nil, err
	}
	win, err := dist.NewWindowedECDF(min(grid.CeilSlots(cfg.Window), horizon), 0)
	if err != nil {
		return Market{}, nil, err
	}
	job := core.Job{Exec: cfg.Exec, Recovery: cfg.Recovery}
	m := core.Market{Price: win, OnDemand: spec.OnDemand, Slot: grid.Slot}
	quotes := make([]quote, (horizon-1)/cfg.QuoteEvery+1)
	next := 0 // first slot not yet in the window
	for epoch := range quotes {
		s := epoch * cfg.QuoteEvery
		if err := win.Slide(tr.Prices[next : s+1]); err != nil {
			return Market{}, nil, err
		}
		next = s + 1
		ot, err := m.OneTimeBid(job)
		if err != nil {
			return Market{}, nil, fmt.Errorf("lanes: one-time quote for %s at slot %d: %w", typ, s, err)
		}
		pb, err := m.PersistentBid(job)
		if err != nil {
			return Market{}, nil, fmt.Errorf("lanes: persistent quote for %s at slot %d: %w", typ, s, err)
		}
		quotes[epoch] = quote{oneTime: ot.Price, persistent: pb.Price}
	}
	return Market{Type: typ, Prices: tr.Prices}, quotes, nil
}

// N reports the lane count.
func (e *Engine) N() int { return len(e.bid) }

// Horizon reports the number of trace slots.
func (e *Engine) Horizon() int { return e.horizon }

// Slot reports the last settled slot.
func (e *Engine) Slot() int { return e.slot }

// advance settles lane i over slots [from, to): the exact fusion of
// cloud.Region.Tick's settlement order (out-bid termination at the new
// price → launch of open requests → per-slot billing) with
// job.Tracker.Observe on a clean substrate (durable checkpoints, no
// injector). Any observable deviation from that pair is a bug, not a
// modeling choice — TestLaneMatchesJobRun replays lanes through the
// real region to hold the line.
//
// It is the engine's only transition: Tick calls it over one slot, Run
// over the rest of the trace. The lane's state is loaded into locals
// once, walked over its market's price slice, and stored back once. A
// lane's life is a sequence of waiting stretches (request open, bid
// below the price) and running stretches (instance up, bid ≥ price),
// each an inner loop. A running stretch bills and consumes work slot
// by slot — the float operations of one slot at a time, in the same
// order and written the same way, nothing reassociated — and leaves
// only on out-bid, completion or the end of the range. Its slots that
// owe no recovery and that bulkSlots proves cannot complete the job
// run in a bulk loop that only bills, subtracts a slot of work and
// tests the next price, and adds the run slots once, on exit. The
// per-slot body is the only general path: recovery-owed slots, the
// last few slots before completion and Tick's one-slot ranges go
// through it, and it alone tests for completion.
func (e *Engine) advance(i, from, to int) {
	st := e.status[i]
	if st == laneDone || st == laneFailed {
		return
	}
	// A lane first observes the slot after its submission.
	if first := int(e.start[i]) + 1; from < first {
		from = first
	}
	if from >= to {
		return
	}
	prices := e.markets[e.market[i]].prices[:to]
	bid, dt, rec := e.bid[i], e.slotHours, e.recovery[i]
	oneTime := e.kind[i] == KindOneTime
	active, begun, restore := e.active[i], e.begun[i], e.restore[i]
	remaining, pendingRec := e.remaining[i], e.pendingRec[i]
	instCost, cost, recHours := e.instCost[i], e.cost[i], e.recHours[i]
	runSlots, idleSlots, intr, finish := e.runSlots[i], e.idleSlots[i], e.intr[i], e.finish[i]

slots:
	for s := from; s < len(prices); s++ {
		price := prices[s]
		if active && bid < price {
			// Region phase 1: out-bid termination. The terminated
			// instance is not billed for this slot; its bill folds into
			// the lane total now — launch order — matching how
			// Tracker.Outcome sums per-instance costs. Tracker.Observe
			// sees a fresh interruption: the durable checkpoint
			// preserves remaining exactly and the next running slot
			// restores.
			active = false
			intr++
			cost += instCost
			instCost = 0
			restore = true
			if oneTime {
				st = laneFailed
				finish = int32(s)
				break
			}
			st = laneIdle // a running lane has begun
			idleSlots++
			continue
		}
		if !active {
			if !(bid >= price) {
				// A waiting stretch: the open request stays below the
				// price, slot after slot. The test is the region's
				// launch test negated as written, so the two agree on
				// every float.
				if begun {
					st = laneIdle
				} else {
					st = lanePending
				}
				idleSlots++
				for s+1 < len(prices) && !(bid >= prices[s+1]) {
					s++
					idleSlots++
				}
				continue
			}
			// Region phase 2: the open request clears the price and
			// launches; the launch slot is billed.
			active = true
		}
		// Tracker.Observe on the first running slot of a stretch.
		if restore {
			pendingRec += rec
			recHours += rec
			restore = false
		}
		begun = true
		st = laneRunning
		bulk := true // the stretch has not yet tried the bulk loop
		for {
			// Region phase 3: per-slot billing of the running instance,
			// then the tracker's recovery-first work consumption.
			instCost += price * dt
			runSlots++
			avail := dt
			if pendingRec > 0 {
				use := pendingRec
				if use > avail {
					use = avail
				}
				pendingRec -= use
				avail -= use
			}
			remaining -= avail
			// Tracker's float-residue tolerance: within a picosecond is
			// done.
			if remaining <= 1e-12 {
				remaining = 0
				st = laneDone
				finish = int32(s)
				cost += instCost
				instCost = 0
				break slots
			}
			if s+1 == len(prices) || bid < prices[s+1] {
				break
			}
			s++
			price = prices[s]
			// The bulk loop, tried once per stretch: at the first slot
			// after the stretch's first that owes no recovery (a
			// one-slot range, such as Tick's, has left the loop above).
			// It settles the slots that bulkSlots proves cannot complete
			// the job: each bills, works and tests the next price — the
			// per-slot body's float operations with avail == dt — and
			// the run slots are added once, on exit. At its bound the
			// per-slot body carries on at the current slot, whose price
			// has passed the bid test.
			if bulk && pendingRec == 0 {
				bulk = false
				if k := bulkSlots(remaining, dt, len(prices)-1-s); k > 0 {
					n := 0
					for _, next := range prices[s+1 : s+1+k] {
						instCost += price * dt
						remaining -= dt
						n++
						price = next
						if bid < price {
							break
						}
					}
					s += n
					runSlots += int32(n)
					if bid < price {
						s-- // the outer loop settles the out-bid slot
						break
					}
				}
			}
		}
	}

	e.status[i] = st
	e.active[i], e.begun[i], e.restore[i] = active, begun, restore
	e.remaining[i], e.pendingRec[i] = remaining, pendingRec
	e.instCost[i], e.cost[i], e.recHours[i] = instCost, cost, recHours
	e.runSlots[i], e.idleSlots[i], e.intr[i], e.finish[i] = runSlots, idleSlots, intr, finish
}

// bulkMinSlots is the fewest slots left in a range for which advance
// computes the bulk bound. Closer to the end of the range the bulk
// could save the per-slot bookkeeping of only a few slots, so advance
// skips the bound's float division and settles them slot by slot.
const bulkMinSlots = 8

// bulkSlots bounds the bulk loop of advance: from a running slot that
// owes no recovery, with remaining work R hours and left slots after
// the current one in the range, it returns how many slots K the bulk
// may settle without testing for completion — 0 when left is below
// bulkMinSlots.
//
// dt is the slot length the kernel subtracts. Each remaining -= dt
// rounds to nearest and never raises remaining, so while remaining
// stays above dt it falls by at most dt + 2⁻⁵³·R per slot. After k
// slots remaining ≥ R − k·(dt + 2⁻⁵³·R), which is above 1e-12 + dt
// (and so above the 1e-12 completion epsilon) for every
// k ≤ q = (R − 1e-12 − dt) / (dt + 2⁻⁵³·R). The bulk runs
// K = ⌊q⌋ − 1 slots; the −1 covers the rounding in computing q. K is
// computed only when q ≥ 2, which is false for a NaN or infinite R and
// for R under about three slots, and a q of left + 1 or more gives
// K = left before any conversion, so K ≤ left and a huge R is safe.
// For R up to 10⁴ hours K is 3 or 4 slots short of the first slot that
// completes, which the per-slot body settles.
func bulkSlots(remaining, dt float64, left int) int {
	if left < bulkMinSlots {
		return 0
	}
	q := (remaining - 1e-12 - dt) / (dt + remaining*0x1p-53)
	if !(q >= 2) {
		return 0
	}
	if q >= float64(left)+1 {
		return left
	}
	return int(q) - 1
}

// Tick settles the next slot for every lane — the slot-major batch
// tick, sharded over contiguous lane ranges. Returns ErrEndOfTrace
// once the traces are exhausted.
func (e *Engine) Tick() error {
	if e.slot+1 >= e.horizon {
		return ErrEndOfTrace
	}
	e.slot++
	s := e.slot
	return sched.Shards(e.N(), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			e.advance(i, s, s+1)
		}
		return nil
	})
}

// Run advances the whole fleet to the end of the trace lane-major:
// each shard hands its lanes, one after another, to the same kernel
// Tick uses, over every slot after the last settled one. The kernel
// keeps a lane's state in locals across that whole range, so a running
// stretch that owes no recovery costs a bill update, a work
// subtraction and a price compare per slot until its last few slots
// before completion. The resulting arrays are bit-identical to ticking
// slot-major to the end — the per-lane op sequence is the same, only
// the traversal order differs — which TestTickEquivalentToRun pins,
// also for a Run that resumes after some Ticks.
func (e *Engine) Run() (*Report, error) {
	from := e.slot + 1
	err := sched.Shards(e.N(), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			e.advance(i, from, e.horizon)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.slot = e.horizon - 1
	return e.Report(), nil
}
