package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/lanes"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// fleetLanes is corebench's committed fleet scale.
const fleetLanes = 10_000

// fleetWant is the SHA-256 of Report.JSON at seed 1 and fleetLanes.
const fleetWant = "65cd01f576c077a47c03fa387e459c30d381e4eafe2f7a395efe923b289badeb"

// fleetGateWant is the fleet set-up's gate: Report.JSON of the full
// fleet at seed 7 must hash to this recorded value.
const fleetGateWant = "da67652eaea7062d223429c859351356f0bcff55e358d6b487d7da712b4d162b"

// fleetConfig mirrors cmd/corebench's fleetConfig: the paper's
// two-month horizon, two markets, a 240-hour quote window, daily quote
// epochs and an execution time long enough that persistent lanes stay
// busy to the end of the trace.
func fleetConfig(seed int64, n int) lanes.Config {
	return lanes.Config{
		Types:      []instances.Type{instances.R3XLarge, instances.C34XL},
		Lanes:      n,
		Days:       61,
		Seed:       seed,
		Exec:       timeslot.Hours(200),
		Recovery:   timeslot.Hours(1),
		Window:     timeslot.Hours(240),
		QuoteEvery: 288,
	}
}

// runFleet is one fleet op: build, run and render the report.
func runFleet(cfg lanes.Config) ([]byte, error) {
	e, err := lanes.New(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := e.Run()
	if err != nil {
		return nil, err
	}
	return rep.JSON(), nil
}

func fleetOp(seed int64) func() ([]byte, error) {
	cfg := fleetConfig(seed, fleetLanes)
	return func() ([]byte, error) { return runFleet(cfg) }
}

func measureFleet(seed int64, d time.Duration) (*outcome, error) {
	var ref []byte
	setups, err := repeatSetup(func() error {
		b, err := runFleet(fleetConfig(7, fleetLanes))
		if err != nil {
			return err
		}
		return checkOutput(b, fleetGateWant, &ref)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	addEndToEnd(o, setups, runSequential(d, wantFor(seed, fleetWant), fleetOp(seed)))
	return o, nil
}

// traceFleet is the traced fleet run: the markets' traces are
// generated first, with the seeds lanes.New derives (Seed + i·1009),
// so lanes.new_ms excludes generation and trace.generate_ms holds it.
// Beside each traced op, a replica of lanes.New's quote grid times the
// windowed ECDF and the Prop. 4/5 solves it is made of; those are
// part of lanes.new_ms and are not added to the op's attribution.
func traceFleet(seed int64, d time.Duration) (*outcome, error) {
	cfg := fleetConfig(seed, fleetLanes)
	var last *lanes.Report
	var ecdfNs, bidNs, bidCalls float64
	var besides int
	out, err := runTracedCycles(d, wantFor(seed, fleetWant), fleetOp(seed),
		func(t *tracer, root int32) ([]byte, error) {
			for i, typ := range cfg.Types {
				err := t.do(root, "trace.generate", func() error {
					_, err := trace.Generate(typ, trace.GenOptions{Days: cfg.Days, Seed: cfg.Seed + int64(i)*1009})
					return err
				})
				if err != nil {
					return nil, err
				}
			}
			var e *lanes.Engine
			if err := t.do(root, "lanes.new", func() (err error) { e, err = lanes.New(cfg); return err }); err != nil {
				return nil, err
			}
			if err := t.do(root, "lanes.run", func() (err error) { last, err = e.Run(); return err }); err != nil {
				return nil, err
			}
			var b []byte
			t.do(root, "lanes.report", func() error { b = last.JSON(); return nil })
			return b, nil
		},
		func(t *tracer) error {
			e, b, n, err := quoteGridReplica(cfg)
			if err != nil {
				return err
			}
			besides++
			ecdfNs += float64(e)
			bidNs += float64(b)
			bidCalls += float64(n)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if last != nil {
		// The report is identical on every op (checked), so one suffices.
		slots := (last.Total.RunHours + last.Total.IdleHours) / float64(timeslot.DefaultSlot)
		out.add("lanes.lane_slots", slots, "count", 1)
		if runMs := out.value("lanes.run_ms"); runMs > 0 {
			out.add("lanes.lane_slots_per_s", slots/(runMs/1e3), "1/s", 1)
		}
		out.add("lanes.done_ratio", float64(last.Total.Completed)/float64(last.Total.Lanes), "ratio", 1)
	}
	if besides > 0 {
		n := float64(besides)
		out.add("dist.ecdf_ms", ecdfNs/n/1e6, "ms", besides)
		out.add("core.bid_ms", bidNs/n/1e6, "ms", besides)
		out.add("core.bid_calls", bidCalls/n, "count", besides)
	}
	return out, nil
}

// quoteGridReplica walks each market as lanes.New's buildMarket does —
// push every slot into the live windowed ECDF, solve Prop. 4 and 5 at
// every epoch boundary — and returns the nanoseconds spent in the
// window pushes and in the bid solves, and the number of solves.
func quoteGridReplica(cfg lanes.Config) (ecdfNs, bidNs time.Duration, solves int, err error) {
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	horizon := cfg.Days * int(grid.SlotsPerHour()) * 24
	capacity := min(grid.CeilSlots(cfg.Window), horizon)
	job := core.Job{Exec: cfg.Exec, Recovery: cfg.Recovery}
	for i, typ := range cfg.Types {
		tr, err := trace.Generate(typ, trace.GenOptions{Days: cfg.Days, Seed: cfg.Seed + int64(i)*1009})
		if err != nil {
			return 0, 0, 0, err
		}
		win, err := dist.NewWindowedECDF(capacity, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		m := core.Market{Price: win, OnDemand: instances.MustLookup(typ).OnDemand, Slot: grid.Slot}
		seg := time.Now()
		for s := 0; s < horizon; s++ {
			if err := win.Push(tr.Prices[s]); err != nil {
				return 0, 0, 0, err
			}
			if s%cfg.QuoteEvery == 0 {
				t0 := time.Now()
				ecdfNs += t0.Sub(seg)
				if _, err := m.OneTimeBid(job); err != nil {
					return 0, 0, 0, err
				}
				if _, err := m.PersistentBid(job); err != nil {
					return 0, 0, 0, err
				}
				solves += 2
				seg = time.Now()
				bidNs += seg.Sub(t0)
			}
		}
		ecdfNs += time.Since(seg)
	}
	return ecdfNs, bidNs, solves, nil
}
