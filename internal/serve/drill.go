package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

// The chaos drill: the end-to-end proof that the control plane
// degrades honestly. It drives a Server synchronously over a live
// simulated market (a seeded synthetic trace feeding the window, the
// real build pipeline memoizing real Prop. 4/5 optima) under a
// serving-fault schedule, in purely logical time — the same
// SetSlot/Ingest/MaybeRebuild/Quote calls cmd/spotbidd makes from its
// goroutines, minus the goroutines — so the whole run, including
// every audit record, is a deterministic function of the seed and the
// schedule. Two runs export byte-identical audit JSONL; the
// serving invariants in internal/invariant audit the stream.

// DrillConfig tunes a drill run. Zero values select defaults sized so
// the default drill exercises every ladder tier, both shed paths, and
// Eq. 14 infeasibility in a few hundred milliseconds.
type DrillConfig struct {
	// Type is the drilled market (default r3.xlarge).
	Type instances.Type
	// Slots is the drill length (default 470).
	Slots int
	// Seed drives the synthetic price trace (default 1).
	Seed int64
	// Faults is the serving-fault schedule (nil = fault-free run).
	Faults Faults
	// BurstSlot, when ≥ 0, floods one slot with drillBurstSize extra
	// requests to exercise admission shedding (default slot 210). Set
	// BurstSlot = -1 to disable.
	BurstSlot int
	// Metrics, when non-nil, receives the server's serve.* metrics.
	Metrics *obs.Registry
	// TSDB, when non-nil, receives a scrape of the server's registry
	// (a private one is created when Metrics is nil) every ScrapeEvery
	// slots, plus the ladder tier as a step series, and turns on the
	// DefaultSLOs burn-rate engine: DrillResult carries the dump and
	// the alert transitions.
	TSDB *tsdb.DB
	// ScrapeEvery is the scrape cadence in slots (default 4).
	ScrapeEvery int
	// Events, when non-nil, receives the SLO engine's Alert events.
	Events *event.Recorder
}

func (c DrillConfig) withDefaults() DrillConfig {
	if c.Type == "" {
		c.Type = instances.R3XLarge
	}
	if c.Slots == 0 {
		c.Slots = 470
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BurstSlot == 0 {
		c.BurstSlot = 210
	}
	return c
}

// drillBurstSize is the size of the BurstSlot flood.
const drillBurstSize = 60

// DrillResult is everything a verifier needs: the audit stream and
// ledger, the tables actually published, the tier timeline, and the
// byte-exact replay artifact.
type DrillResult struct {
	// Key is the drilled market.
	Key Key
	// Slots is the drill length.
	Slots int
	// FreshForSlots / StaleForSlots are the ladder thresholds the
	// server ran with (for the staleness invariant).
	FreshForSlots int
	StaleForSlots int
	// Records is the retained audit stream, oldest first.
	Records []AuditRecord
	// Counts is the exact per-outcome ledger; Total its sum.
	Counts [NumOutcomes]uint64
	Total  uint64
	// Published maps keyIdx → table version → snapshot fingerprint
	// for every table that was ever swapped in.
	Published map[int16]map[uint64]uint64
	// TierBySlot is the drilled market's ladder tier at the end of
	// each slot (TierRefuse before the first table).
	TierBySlot []Tier
	// BuildLog is the build pipeline's decision log.
	BuildLog []BuildRecord
	// AuditJSONL is the audit stream rendered as JSONL — the replay
	// artifact; Fingerprint is its FNV-1a hash.
	AuditJSONL  []byte
	Fingerprint uint64
	// TSDBDump is the scraped time-series store as JSONL (nil unless
	// DrillConfig.TSDB was set) — the second replay artifact; Alerts
	// is the SLO engine's transition log over the run.
	TSDBDump []byte
	Alerts   []tsdb.Alert
}

// drillConfig builds the Server configuration the drill runs: a small
// window and quick cadence so every ladder transition happens within
// a few hundred slots, and tight admission buckets so a 60-request
// burst actually sheds.
func drillServerConfig(c DrillConfig) Config {
	return Config{
		Types:           []instances.Type{c.Type},
		WindowSlots:     288,
		MinSamples:      48,
		RebuildEvery:    12,
		FreshForSlots:   24,
		StaleForSlots:   72,
		FailuresToStall: 2,
		ExecGridHours:   []float64{1, 4, 12},
		RecoveryGridHours: []float64{
			60.0 / 3600.0,  // 60 s
			600.0 / 3600.0, // 600 s
		},
		Admission: AdmitConfig{
			RatePerSec: [NumClasses]float64{20, 10, 5},
			Burst:      [NumClasses]float64{8, 8, 8},
		},
		AuditCap: 1 << 13,
		Metrics:  c.Metrics,
		Faults:   c.Faults,
	}
}

// outcomeSelectors builds tsdb selectors for the given outcomes.
func outcomeSelectors(outs ...Outcome) []tsdb.Selector {
	sels := make([]tsdb.Selector, len(outs))
	for i, o := range outs {
		sels[i] = tsdb.Selector{Name: "serve.outcome." + o.String()}
	}
	return sels
}

// DefaultSLOs is the control plane's objective set, shared by the
// drill, cmd/spotbidd, and cmd/spotbidtop.
//
// fresh-tier-ratio: ≥ 99% of data-quality answers come off a fresh
// table. Good is served_fresh; Total is the data-quality outcomes only
// (fresh/stale serves plus staleness refusals). Cold refusals are
// excluded — before the first table there is no staleness story to
// tell, and counting warm-up would fire the alert at every process
// start. Policy refusals (Eq. 14 infeasibility, draining) and
// admission sheds answer a different question and would mask a
// staleness incident behind a price spike. The 48/6-slot rule at 6x
// burn fires ≈ 20 slots into a full staleness outage and resolves
// within a long window of recovery.
//
// shed-rate: ≥ 95% of all requests escape the shedder. Good is
// everything but the two shed outcomes; Total is every request. The
// 48/6-slot rule at 3x burn (≥ 15% shedding) catches the burst and
// deadline-skew incidents without firing on background load.
func DefaultSLOs() []tsdb.SLO {
	return []tsdb.SLO{
		{
			Name: "fresh-tier-ratio",
			Good: outcomeSelectors(OutcomeServedFresh),
			Total: outcomeSelectors(OutcomeServedFresh, OutcomeServedStale,
				OutcomeRefusedStale),
			Objective: 0.99,
			Windows:   []tsdb.BurnRule{{LongSlots: 48, ShortSlots: 6, MaxBurn: 6}},
		},
		{
			Name: "shed-rate",
			Good: outcomeSelectors(OutcomeServedFresh, OutcomeServedStale,
				OutcomeRefusedStale, OutcomeRefusedCold, OutcomeRefusedInfeasible,
				OutcomeRefusedDraining, OutcomeRejectedInvalid),
			Total: outcomeSelectors(OutcomeServedFresh, OutcomeServedStale,
				OutcomeRefusedStale, OutcomeRefusedCold, OutcomeRefusedInfeasible,
				OutcomeRefusedDraining, OutcomeRejectedInvalid,
				OutcomeShedCapacity, OutcomeShedDeadline),
			Objective: 0.95,
			Windows:   []tsdb.BurnRule{{LongSlots: 48, ShortSlots: 6, MaxBurn: 3}},
		},
	}
}

// Drill runs the scenario and returns the full result. It performs no
// assertions — the e2e test and the serving invariants judge the
// stream.
func Drill(cfg DrillConfig) (*DrillResult, error) {
	cfg = cfg.withDefaults()
	if cfg.TSDB != nil && cfg.Metrics == nil {
		// The scraper needs the serve.* registry even when the caller
		// didn't ask to keep it.
		cfg.Metrics = obs.New()
	}
	srv, err := New(drillServerConfig(cfg))
	if err != nil {
		return nil, err
	}
	key := srv.Keys()[0]

	days := cfg.Slots/288 + 1
	tr, err := trace.Generate(cfg.Type, trace.GenOptions{Days: days, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if tr.Len() < cfg.Slots {
		return nil, fmt.Errorf("serve: drill trace of %d slots shorter than the %d-slot drill", tr.Len(), cfg.Slots)
	}

	res := &DrillResult{
		Key:           key,
		Slots:         cfg.Slots,
		FreshForSlots: srv.cfg.FreshForSlots,
		StaleForSlots: srv.cfg.StaleForSlots,
		Published:     map[int16]map[uint64]uint64{},
		TierBySlot:    make([]Tier, cfg.Slots),
	}
	slotMicros := srv.SlotMicros()

	// The observability plane: scrape the registry every ScrapeEvery
	// slots, with the ladder tier riding along as a step series, and
	// evaluate the default SLOs off each scrape.
	var (
		scraper *tsdb.Scraper
		engine  *tsdb.Engine
	)
	if cfg.TSDB != nil {
		scraper = tsdb.NewScraper(cfg.TSDB, tsdb.ScrapeConfig{
			Registry: cfg.Metrics,
			Every:    cfg.ScrapeEvery,
			Labels:   tsdb.L("market", string(key.Type)),
		})
		scraper.AddSource(func(slot int, app tsdb.Appender) {
			tier := TierRefuse
			if tbl := srv.Table(key); tbl != nil {
				tier = srv.tierForAge(slot - tbl.BuiltSlot)
			}
			app("serve.tier", nil, float64(tier))
		})
		engine, err = tsdb.NewEngine(cfg.TSDB, cfg.Events, DefaultSLOs()...)
		if err != nil {
			return nil, err
		}
	}

	quote := func(slot int, off int64, typ instances.Type, exec, recSec float64, class Class) {
		srv.Quote(QuoteRequest{
			Type:            typ,
			ExecHours:       exec,
			RecoverySeconds: recSec,
			Class:           class,
			NowMicros:       int64(slot)*slotMicros + off,
		})
	}

	for slot := 0; slot < cfg.Slots; slot++ {
		srv.SetSlot(slot)
		if err := srv.Ingest(key, slot, tr.At(slot)); err != nil {
			return nil, err
		}
		for _, br := range srv.MaybeRebuild(slot) {
			if br.Event != BuildOK && br.Event != BuildLanded {
				continue
			}
			if tbl := srv.Table(key); tbl != nil {
				m := res.Published[0]
				if m == nil {
					m = map[uint64]uint64{}
					res.Published[0] = m
				}
				m[tbl.Version] = tbl.Fingerprint
			}
		}

		// The steady request mix: a one-time mid-size job, a long
		// persistent job with a heavy recovery (the cell Eq. 14 rules
		// out once the spike poisons the window), and — every third
		// slot — an interactive short job.
		quote(slot, 1000, cfg.Type, 4, 0, ClassStandard)
		quote(slot, 2000, cfg.Type, 12, 600, ClassBatch)
		if slot%3 == 0 {
			quote(slot, 3000, cfg.Type, 1, 60, ClassInteractive)
		}
		if slot == cfg.BurstSlot {
			for i := 0; i < drillBurstSize; i++ {
				quote(slot, 10_000+int64(i)*100, cfg.Type, 2, 0, Class(i%int(NumClasses)))
			}
		}

		tier := TierRefuse
		if tbl := srv.Table(key); tbl != nil {
			tier = srv.tierForAge(slot - tbl.BuiltSlot)
		}
		res.TierBySlot[slot] = tier

		if scraper != nil && scraper.Tick(slot) {
			res.Alerts = append(res.Alerts, engine.Eval(slot)...)
		}
	}

	res.Records = srv.Audit().Records()
	res.Counts = srv.Audit().Counts()
	res.Total = srv.Audit().Total()
	res.BuildLog = srv.BuildLog()

	var buf bytes.Buffer
	if err := srv.Audit().WriteJSONL(&buf); err != nil {
		return nil, err
	}
	res.AuditJSONL = buf.Bytes()
	h := fnv.New64a()
	h.Write(res.AuditJSONL)
	res.Fingerprint = h.Sum64()
	if cfg.TSDB != nil {
		res.TSDBDump = cfg.TSDB.DumpJSONL()
	}
	return res, nil
}
