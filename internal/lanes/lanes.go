// Package lanes is the struct-of-arrays fleet batch engine: it
// advances every (market, tenant) lane of a simulated spot fleet in
// one cache-friendly pass, with contiguous arrays for bid, remaining
// work, accrued cost, and lane state instead of the per-client object
// graph the single-job runtime (internal/client + internal/job) walks.
// It exists for fleets where 10⁴–10⁶ simulated bidders are the
// market, where the per-client slot loop — a monitored market fetch
// per tenant per slot, tens of µs each (client.market in
// BENCH.json) — is orders of magnitude too slow.
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
	if !(c.Exec > 0) {
		return fmt.Errorf("lanes: execution time %v must be positive", float64(c.Exec))
	}
	if c.Recovery < 0 {
		return fmt.Errorf("lanes: negative recovery time %v", float64(c.Recovery))
	}
	if c.Days < 1 || c.QuoteEvery < 1 || c.Window <= 0 {
		return fmt.Errorf("lanes: bad grid (days %d, quote stride %d, window %v)", c.Days, c.QuoteEvery, float64(c.Window))
	}
	return nil
}

// quote is one epoch's Prop. 4/5 optima for a market.
type quote struct {
	oneTime    float64
	persistent float64
}

// marketData is one instance type's read-only market: the generated
// price series and the per-epoch quote grid. Shared by every lane of
// the market; never written after New.
type marketData struct {
	typ      instances.Type
	onDemand float64
	prices   []float64
	quotes   []quote
}

// Engine is the struct-of-arrays fleet state. All per-lane fields are
// parallel arrays indexed by lane — the batch tick streams through
// them contiguously instead of chasing per-client pointers.
type Engine struct {
	cfg       Config
	slotHours float64
	horizon   int
	markets   []marketData

	// Immutable lane parameters (seeded from the lane index).
	market []int32   // market index
	kind   []uint8   // KindOneTime | KindPersistent
	bid    []float64 // submitted bid, USD per instance-hour
	start  []int32   // submission slot; first observed slot is start+1

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
// the memoized generator, quote grids computed from the live windowed
// ECDF), then the lane arrays, seeded lane by lane from the lane-index
// RNG streams. Markets build in parallel — each owns its slot in the
// markets array, so the build is deterministic.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	e.slotHours = float64(grid.Slot)
	e.horizon = cfg.Days * int(grid.SlotsPerHour()) * 24
	if e.horizon <= 2*cfg.QuoteEvery {
		return nil, fmt.Errorf("lanes: horizon %d too short for quote stride %d", e.horizon, cfg.QuoteEvery)
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
	e.markets = make([]marketData, len(types))
	err := sched.Runs(len(types), func(i int) error {
		return e.buildMarket(i, types[i], grid)
	})
	if err != nil {
		return nil, err
	}

	n := cfg.Lanes
	e.market = make([]int32, n)
	e.kind = make([]uint8, n)
	e.bid = make([]float64, n)
	e.start = make([]int32, n)
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

	maxStagger := e.horizon/2 - cfg.QuoteEvery
	serr := sched.Shards(n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			mi, kind, startSlot, bidF := laneParams(cfg, i, maxStagger, len(e.markets))
			m := &e.markets[mi]
			q := m.quotes[startSlot/cfg.QuoteEvery]
			base := q.oneTime
			if kind == KindPersistent {
				base = q.persistent
			}
			e.market[i] = int32(mi)
			e.kind[i] = kind
			e.bid[i] = base * bidF
			e.start[i] = int32(startSlot)
			e.remaining[i] = float64(cfg.Exec)
			e.finish[i] = -1
		}
		return nil
	})
	if serr != nil {
		return nil, serr
	}
	return e, nil
}

// laneParams derives lane i's immutable parameters from its RNG
// stream. Draw order is part of the determinism contract (stagger,
// then bid spread); the reference engine replays the same function.
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

// buildMarket generates market mi's price series and walks it once,
// pushing every slot into the live windowed ECDF and computing the
// Prop. 4/5 quote grid at each epoch boundary — the branch-free
// quantile/expectation queries on the shared window replace one
// O(n log n) snapshot per lane with two bid solves per epoch.
func (e *Engine) buildMarket(mi int, typ instances.Type, grid timeslot.Grid) error {
	spec, err := instances.Lookup(typ)
	if err != nil {
		return err
	}
	tr, err := trace.Generate(typ, trace.GenOptions{
		Days:       e.cfg.Days,
		Seed:       e.cfg.Seed + int64(mi)*1009,
		DwellSlots: e.cfg.DwellSlots,
	})
	if err != nil {
		return err
	}
	capacity := grid.CeilSlots(e.cfg.Window)
	if capacity > e.horizon {
		capacity = e.horizon
	}
	if capacity < 1 {
		capacity = 1
	}
	win, err := dist.NewWindowedECDF(capacity, 0)
	if err != nil {
		return err
	}
	job := core.Job{Exec: e.cfg.Exec, Recovery: e.cfg.Recovery}
	quotes := make([]quote, (e.horizon-1)/e.cfg.QuoteEvery+1)
	epoch := 0
	for s := 0; s < e.horizon; s++ {
		if err := win.Push(tr.Prices[s]); err != nil {
			return err
		}
		if s == epoch*e.cfg.QuoteEvery {
			m := core.Market{Price: win, OnDemand: spec.OnDemand, Slot: grid.Slot}
			ot, err := m.OneTimeBid(job)
			if err != nil {
				return fmt.Errorf("lanes: one-time quote for %s at slot %d: %w", typ, s, err)
			}
			pb, err := m.PersistentBid(job)
			if err != nil {
				return fmt.Errorf("lanes: persistent quote for %s at slot %d: %w", typ, s, err)
			}
			quotes[epoch] = quote{oneTime: ot.Price, persistent: pb.Price}
			epoch++
		}
	}
	e.markets[mi] = marketData{typ: typ, onDemand: spec.OnDemand, prices: tr.Prices, quotes: quotes}
	return nil
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
// by slot — the same float operations in the same order as one slot at
// a time, nothing reassociated or fused — and leaves only on out-bid,
// completion or the end of the range.
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
	bid, dt, rec := e.bid[i], e.slotHours, float64(e.cfg.Recovery)
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
		}
	}

	e.status[i] = st
	e.active[i], e.begun[i], e.restore[i] = active, begun, restore
	e.remaining[i], e.pendingRec[i] = remaining, pendingRec
	e.instCost[i], e.cost[i], e.recHours[i] = instCost, cost, recHours
	e.runSlots[i], e.idleSlots[i], e.intr[i], e.finish[i] = runSlots, idleSlots, intr, finish
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
// stretch costs a price compare, a bill update and a work subtraction
// per slot. The resulting arrays are bit-identical to ticking
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
