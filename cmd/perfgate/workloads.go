package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/instances"
	"repro/internal/lanes"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/serve"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// historySlots matches the experiments package: the two-month history
// window every client warms up through, in five-minute slots.
const historySlots = 61 * 288

// benchDays sizes the benchmark traces: the two-month history plus
// nine days of headroom to tick through.
const benchDays = 70

// benchRegion builds a fresh benchmark region (the memo makes the
// repeated trace generation nearly free).
func benchRegion() (*cloud.Region, error) {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: benchDays, Seed: 1})
	if err != nil {
		return nil, err
	}
	return cloud.NewRegion(tr)
}

// benchTick: one region slot advance — admissions, outbids, billing —
// with no client attached. The region is rebuilt off the clock when
// its trace runs out.
func benchTick(b *testing.B) {
	region, err := benchRegion()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if region.Now() >= region.Horizon()-2 {
			b.StopTimer()
			if region, err = benchRegion(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := region.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClient builds a client warmed through the two-month history.
func benchClient() (*client.Client, error) {
	region, err := benchRegion()
	if err != nil {
		return nil, err
	}
	cl, err := client.New(region)
	if err != nil {
		return nil, err
	}
	if err := cl.Skip(historySlots); err != nil {
		return nil, err
	}
	return cl, nil
}

// benchMarket: the client's full per-slot market step — advance one
// slot, fetch the price-history view, update the incremental ECDF, and
// snapshot the market — exactly what every supervised slot of a
// persistent job pays.
func benchMarket(b *testing.B) {
	cl, err := benchClient()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cl.Region.Now() >= cl.Region.Horizon()-2 {
			b.StopTimer()
			if cl, err = benchClient(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := cl.Skip(1); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Market(instances.R3XLarge); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPersistentBid: the Prop. 5 optimal persistent bid against a
// fixed two-month ECDF.
func benchPersistentBid(b *testing.B) {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: benchDays, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := dist.NewEmpirical(tr.Prices[:historySlots], 0)
	if err != nil {
		b.Fatal(err)
	}
	m := core.Market{Price: e, OnDemand: 0.35}
	job := core.Job{Exec: 1, Recovery: timeslot.Seconds(30)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PersistentBid(job); err != nil {
			b.Fatal(err)
		}
	}
}

// cellWindow: the §7.1 cell window build of Figs. 5–6 — a Fill of the
// first two months of the seed-1 r3.xlarge trace the (r3.xlarge, run
// 0) cell generates (63 days, default dwell) into a window of that
// size, then the one CDFPartialMean that builds the prefix sums, as
// the cell's first bid does.
func cellWindow(b *testing.B) {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 63, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prices := tr.Prices[:historySlots]
	win, err := dist.NewWindowedECDF(historySlots, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := win.Fill(prices); err != nil {
			b.Fatal(err)
		}
		dist.CDFPartialMean(win, prices[0])
	}
}

// table3 runs the end-to-end Table 3 experiment once; the fixed seed
// keeps both arms of the memo pair on identical work.
func table3(b *testing.B) {
	if _, err := experiments.Table3(experiments.Opts{Seed: 1, Runs: 1}); err != nil {
		b.Fatal(err)
	}
}

// table3Baseline disables the trace memo: every repetition regenerates
// every trace, the pre-memo behavior.
func table3Baseline(b *testing.B) {
	trace.SetMemoCapacity(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table3(b)
	}
}

// table3Optimized measures the shipped steady state: memo on and warm,
// the configuration every sweep and repeated invocation runs under.
// It is also the experiments.table3 single.
func table3Optimized(b *testing.B) {
	trace.SetMemoCapacity(64)
	table3(b) // warm the cache off the clock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table3(b)
	}
}

// fleetConfig sizes the struct-of-arrays fleet benchmarks: the
// paper's two-month horizon (61 days = 17 568 slots), two markets, a
// 240-hour live quote window, daily quote epochs, and an execution
// time long enough that persistent lanes stay busy to the end of the
// trace — so the number measures sustained lane-slot throughput, not
// early completions.
func fleetConfig(lanesN int) lanes.Config {
	return lanes.Config{
		Types:      []instances.Type{instances.R3XLarge, instances.C34XL},
		Lanes:      lanesN,
		Days:       61,
		Seed:       1,
		Exec:       timeslot.Hours(200),
		Recovery:   timeslot.Hours(1),
		Window:     timeslot.Hours(240),
		QuoteEvery: 288,
	}
}

// fleetRun is the shipped struct-of-arrays engine end to end at
// lanesN lanes: market build (shared live-window quote grid) plus the
// sharded lane-major run over every lane × slot.
func fleetRun(lanesN int) func(*testing.B) {
	cfg := fleetConfig(lanesN)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := lanes.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// yardstick copies 65,536 float64 values drawn from a fixed seed and
// sorts the copy with slices.Sort: a fixed amount of CPU work that runs
// no repository code, so no change to the repository moves it. The
// normalized gates time their operations as multiples of it.
func yardstick(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src, xs := make([]float64, 1<<16), make([]float64, 1<<16)
	for i := range src {
		src[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		slices.Sort(xs)
	}
}

// runs benchmarks one exp run per iteration at seed i+1, with the
// instrumentation attach installs on the options.
func runs[T any](exp func(experiments.Opts) (T, error), attach func(*experiments.Opts)) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := experiments.Opts{Seed: int64(i) + 1, Runs: 1}
			attach(&o)
			if _, err := exp(o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// resetEvery is how many emits or spans the recorder micro pairs
// record between Resets: the recorder's kept storage absorbs them, so
// the loops time steady-state appends, not slice growth.
const resetEvery = 4096

// emitLoop and spanLoop benchmark one event emit, or one span begun
// and ended, on rec (event.Noop for the Noop side).
func emitLoop(rec *event.Recorder) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%resetEvery == 0 {
				rec.Reset()
			}
			rec.Emit(&event.Event{Slot: i, Kind: event.PriceSet, Region: "bench", Value: 0.03})
		}
	}
}

func spanLoop(rec *event.Recorder) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%resetEvery == 0 {
				rec.Reset()
			}
			rec.EndSpan(rec.BeginSpan("bench", "job", "region", i), i+3)
		}
	}
}

// overheads measures the instrumented-vs-Noop pairs; quick measures
// only event.emit. Every recorder pair builds the recorder that
// product callers build, event.NewRecorder(); its emits must append
// without a single allocation.
func overheads(reps int, quick bool) []Overhead {
	rec := event.NewRecorder()
	emit := overhead("event.emit", false, emitLoop(event.Noop), emitLoop(rec), reps)
	if quick {
		return []Overhead{emit}
	}

	live := obs.New()
	liveCounter := live.Counter("bench.counter")
	liveHist := live.Histogram("bench.hist", obs.SlotBuckets)
	noopCounter := obs.Noop.Counter("bench.counter")
	noopHist := obs.Noop.Histogram("bench.hist", obs.SlotBuckets)

	noop := func(*experiments.Opts) {}
	metered := func(o *experiments.Opts) { o.Metrics = obs.New() }
	return []Overhead{
		overhead("counter.inc", false,
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					noopCounter.Inc()
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					liveCounter.Inc()
				}
			}, reps),
		overhead("histogram.observe", false,
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					noopHist.Observe(float64(i % 300))
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					liveHist.Observe(float64(i % 300))
				}
			}, reps),
		overhead("span", false,
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					obs.Noop.StartSpan("bench.span", i).End(i + 3)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					live.StartSpan("bench.span", i).End(i + 3)
				}
			}, reps),
		emit,
		overhead("event.span", false, spanLoop(event.Noop), spanLoop(rec), reps),
		overhead("experiments.table3", true, runs(experiments.Table3, noop), runs(experiments.Table3, metered), reps),
		// A fresh store per run: the per-run cost includes the store,
		// matching how the sweeps attach one.
		overhead("experiments.table3+tsdb", true, runs(experiments.Table3, noop),
			runs(experiments.Table3, func(o *experiments.Opts) { o.TSDB = tsdb.New(tsdb.Config{}) }), reps),
		// Both sides run a live registry (its cost is the table3 pair's
		// budget), so the delta isolates the tsdb plane: the
		// instrumented side scrapes every 4 slots into a store,
		// evaluates the burn-rate SLOs on each scrape, and dumps the
		// store over the full chaos drill.
		overhead("experiments.servedrill+tsdb", true, runs(experiments.ServeDrillRun, metered),
			runs(experiments.ServeDrillRun, func(o *experiments.Opts) {
				metered(o)
				o.TSDB = tsdb.New(tsdb.Config{})
			}), reps),
		// One recorder, reset before each run, so a run records into the
		// storage the runs before it kept.
		overhead("experiments.table3+trace", true, runs(experiments.Table3, noop),
			runs(experiments.Table3, func(o *experiments.Opts) {
				rec.Reset()
				o.Trace = rec
			}), reps),
	}
}

// quoteServer builds a warmed single-market server: a full window of
// synthetic sub-ceiling prices, one table built and fresh forever,
// admission unlimited (admission is measured through its own branch,
// not by starving the others).
func quoteServer() (*serve.Server, error) {
	srv, err := serve.New(serve.Config{
		Types:         []instances.Type{instances.R3XLarge},
		WindowSlots:   288,
		MinSamples:    48,
		RebuildEvery:  1,
		FreshForSlots: 1 << 30,
		StaleForSlots: 1 << 31,
		Admission: serve.AdmitConfig{
			Burst: [serve.NumClasses]float64{1 << 40, 1 << 40, 1 << 40},
		},
	})
	if err != nil {
		return nil, err
	}
	key := srv.Keys()[0]
	for slot := 0; slot < 288; slot++ {
		srv.SetSlot(slot)
		if err := srv.Ingest(key, slot, 0.05+0.001*float64(slot%7)); err != nil {
			return nil, err
		}
	}
	srv.MaybeRebuild(287)
	if srv.Table(key) == nil {
		return nil, fmt.Errorf("quote server failed to build a table")
	}
	return srv, nil
}

func quoteRun(srv *serve.Server, req serve.QuoteRequest) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srv.Quote(req)
		}
	}
}

// p99 samples individual served calls with a wall clock. The timer
// overhead (~tens of ns) is included; the number is a trend signal,
// not a contract.
func p99(srv *serve.Server, req serve.QuoteRequest, samples int) float64 {
	lat := make([]int64, samples)
	for i := range lat {
		t0 := time.Now()
		srv.Quote(req)
		lat[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[samples*99/100]) / 1e3
}

// quotes measures the hot branches of Server.Quote on one warmed
// server (served one-time, served persistent, deadline shed), then
// samples the served one-time quote's p99.
func quotes(reps, samples int) ([]Result, Quote, error) {
	srv, err := quoteServer()
	if err != nil {
		return nil, Quote{}, err
	}
	onetime := serve.QuoteRequest{Type: instances.R3XLarge, ExecHours: 4, NowMicros: 1}
	singles := []Result{
		single("serve.quote_onetime", quoteRun(srv, onetime), reps),
		single("serve.quote_persistent", quoteRun(srv, serve.QuoteRequest{
			Type: instances.R3XLarge, ExecHours: 12, RecoverySeconds: 600,
			Class: serve.ClassBatch, NowMicros: 1,
		}), reps),
		// A dead-on-arrival deadline (below MinServiceMicros away)
		// exits through the deadline-shed branch without spending a
		// token.
		single("serve.quote_shed_deadline", quoteRun(srv, serve.QuoteRequest{
			Type: instances.R3XLarge, ExecHours: 4, NowMicros: 1, DeadlineMicros: 2,
		}), reps),
	}
	quote := Quote{QuotesPerSec: 1e9 / singles[0].NsPerOp, P99Micros: p99(srv, onetime, samples), P99Samples: samples}
	return singles, quote, nil
}
