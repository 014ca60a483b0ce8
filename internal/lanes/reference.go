package lanes

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// RunReference simulates the same fleet on the legacy per-client
// machinery the batch engine replaces: one cloud.Region carrying
// every market trace, one cloud.SpotRequest + job.Tracker object pair
// per lane, ticked slot by slot with a full tracker sweep after every
// tick, and one O(n log n) ECDF snapshot per lane quote. Same config
// in, byte-identical Render/JSON out — pinned by
// TestReferenceEquivalence, which therefore re-proves the whole
// engine (quote grid, kernel, reduction) against the real substrate
// at fleet granularity, not just lane by lane.
//
// It is also the honest baseline of cmd/perfgate's lanes.fleet speedup:
// the region walks its request and instance tables through pointers
// and maps every slot, each tracker is its own heap object, and every
// quote pays the legacy snapshot — exactly the costs the
// struct-of-arrays engine exists to delete.
func RunReference(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	horizon := cfg.Days * int(grid.SlotsPerHour()) * 24
	if horizon <= 2*cfg.QuoteEvery {
		return nil, fmt.Errorf("lanes: horizon %d too short for quote stride %d", horizon, cfg.QuoteEvery)
	}

	seen := map[instances.Type]bool{}
	var types []instances.Type
	for _, t := range cfg.Types {
		if !seen[t] {
			seen[t] = true
			types = append(types, t)
		}
	}
	capacity := grid.CeilSlots(cfg.Window)
	if capacity > horizon {
		capacity = horizon
	}
	if capacity < 1 {
		capacity = 1
	}
	markets := make([]marketData, len(types))
	traces := make([]*trace.Trace, len(types))
	for mi, typ := range types {
		spec, err := instances.Lookup(typ)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Generate(typ, trace.GenOptions{
			Days:       cfg.Days,
			Seed:       cfg.Seed + int64(mi)*1009,
			DwellSlots: cfg.DwellSlots,
		})
		if err != nil {
			return nil, err
		}
		traces[mi] = tr
		markets[mi] = marketData{typ: typ, onDemand: spec.OnDemand, prices: tr.Prices}
	}
	region, err := cloud.NewRegion(traces...)
	if err != nil {
		return nil, err
	}

	// Lane parameters and legacy quotes. The quote freezes the same
	// window the engine's live grid reads at the lane's submission
	// epoch into a fresh Empirical — element-identical samples, so the
	// bid values match the engine's bit for bit; only the cost of
	// getting them differs.
	coreJob := core.Job{Exec: cfg.Exec, Recovery: cfg.Recovery}
	maxStagger := horizon/2 - cfg.QuoteEvery
	n := cfg.Lanes
	laneMarket := make([]int, n)
	laneKind := make([]uint8, n)
	laneBid := make([]float64, n)
	laneStart := make([]int, n)
	for i := 0; i < n; i++ {
		mi, kind, startSlot, bidF := laneParams(cfg, i, maxStagger, len(markets))
		m := &markets[mi]
		es := (startSlot / cfg.QuoteEvery) * cfg.QuoteEvery
		lo := es + 1 - capacity
		if lo < 0 {
			lo = 0
		}
		est, err := dist.NewEmpirical(m.prices[lo:es+1], 0)
		if err != nil {
			return nil, err
		}
		mkt := core.Market{Price: est, OnDemand: m.onDemand, Slot: grid.Slot}
		var bid core.Bid
		if kind == KindPersistent {
			bid, err = mkt.PersistentBid(coreJob)
		} else {
			bid, err = mkt.OneTimeBid(coreJob)
		}
		if err != nil {
			return nil, fmt.Errorf("lanes: reference quote for %s at slot %d: %w", m.typ, es, err)
		}
		laneMarket[i] = mi
		laneKind[i] = kind
		laneBid[i] = bid.Price * bidF
		laneStart[i] = startSlot
	}

	// Submission order: by start slot, lane index breaking ties — the
	// region's request table iterates in submission order, so this
	// keeps the replay deterministic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return laneStart[order[a]] < laneStart[order[b]] })

	trackers := make([]*job.Tracker, n)
	next := 0
	for {
		now := region.Now()
		for next < n && laneStart[order[next]] == now {
			i := order[next]
			kind := cloud.OneTime
			if laneKind[i] == KindPersistent {
				kind = cloud.Persistent
			}
			tk, err := job.NewSpotJob(region, nil, job.Spec{
				ID:       fmt.Sprintf("lane-%d", i),
				Type:     markets[laneMarket[i]].typ,
				Exec:     cfg.Exec,
				Recovery: cfg.Recovery,
			}, laneBid[i], kind)
			if err != nil {
				return nil, err
			}
			trackers[i] = tk
			next++
		}
		if err := region.Tick(); err != nil {
			if errors.Is(err, cloud.ErrEndOfTrace) {
				break
			}
			return nil, err
		}
		for _, tk := range trackers {
			if tk == nil || tk.Done() {
				continue
			}
			if err := tk.Observe(); err != nil {
				return nil, err
			}
		}
	}

	return reduceReport(markets, horizon, n, func(i int) (int, uint8, job.Outcome, bool) {
		tk := trackers[i]
		out := tk.Outcome()
		return laneMarket[i], laneKind[i], out, tk.Done() && !out.Completed
	}), nil
}
