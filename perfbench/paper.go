package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// goldenDir holds the experiment goldens the paper set-up checks.
const goldenDir = "internal/experiments/testdata"

// paperRuns is the repository's documented fast path (`experiments
// -runs 3`): short enough for a run to land the ≥100 ops a p90 needs.
const paperRuns = 3

// paperWant is the SHA-256 of the rendered Table 3 + Fig. 5 + Fig. 6
// at seed 1, -runs 3.
const paperWant = "8b4153302541144e81aa9e59d6c28daad1b05546479de8bd5105e054e86ae832"

// historySlots is the experiments' two-month monitor window in slots.
const historySlots = 61 * 288

// renderPaper computes and renders what `experiments -only
// table3,fig5,fig6` prints for o.
func renderPaper(o experiments.Opts) ([3]string, error) {
	t3, err := experiments.Table3(o)
	if err != nil {
		return [3]string{}, err
	}
	f5, err := experiments.Figure5(o)
	if err != nil {
		return [3]string{}, err
	}
	f6, err := experiments.Figure6(o)
	if err != nil {
		return [3]string{}, err
	}
	return [3]string{t3.Render(), f5.Render(), f6.Render()}, nil
}

func joinRender(r [3]string) []byte { return []byte(r[0] + r[1] + r[2]) }

// paperGate is the paper set-up: the goldens' configuration (seed 7,
// two runs) rendered from an empty memo and checked byte for byte
// against internal/experiments/testdata.
func paperGate() (func() error, error) {
	var want [3][]byte
	for i, name := range []string{"table3", "figure5", "figure6"} {
		b, err := os.ReadFile(filepath.Join(goldenDir, name+".golden"))
		if err != nil {
			return nil, err
		}
		want[i] = b
	}
	return func() error {
		got, err := renderPaper(experiments.Opts{Seed: 7, Runs: 2, Days: 63})
		if err != nil {
			return err
		}
		for i := range got {
			if !bytes.Equal([]byte(got[i]), want[i]) {
				return fmt.Errorf("golden gate: output %d differs from %s", i, goldenDir)
			}
		}
		return nil
	}, nil
}

func paperOp(seed int64) func() ([]byte, error) {
	o := experiments.Opts{Seed: seed, Runs: paperRuns}
	return func() ([]byte, error) {
		r, err := renderPaper(o)
		return joinRender(r), err
	}
}

func wantFor(seed int64, hash string) string {
	if seed == 1 {
		return hash
	}
	return ""
}

func measurePaper(seed int64, d time.Duration) (*outcome, error) {
	gate, err := paperGate()
	if err != nil {
		return nil, err
	}
	setups, err := repeatSetup(gate)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	addEndToEnd(o, setups, runSequential(d, wantFor(seed, paperWant), paperOp(seed)))
	return o, nil
}

// tracePaper is the traced paper run. Each cycle runs the untraced op
// (runtime counters, memo statistics, tracing-off op time), the traced
// replica at GOMAXPROCS nproc (spans → layer attribution) and at
// GOMAXPROCS 1 (sched.speedup). The replica's rendered output must
// equal the untraced op's byte for byte.
func tracePaper(seed int64, d time.Duration) (*outcome, error) {
	o := experiments.Opts{Seed: seed, Runs: paperRuns, Days: 63}
	return runTracedCycles(d, wantFor(seed, paperWant), paperOp(seed),
		func(t *tracer, root int32) ([]byte, error) {
			r, err := tracedPaper(t, root, o)
			return joinRender(r), err
		}, nil)
}

// runTracedCycles is the traced-run loop shared by paper and fleet;
// beside, when non-nil, runs after each traced op on a warm memo and
// adds its own metrics (it is not part of the op's span tree).
func runTracedCycles(d time.Duration, want string, untraced func() ([]byte, error),
	traced func(t *tracer, root int32) ([]byte, error), beside func(t *tracer) error) (*outcome, error) {
	out := &outcome{}
	t := newTracer()
	sums := newLayerSums()
	var ref []byte
	var rt rtTotals
	var plainMs, tracedMs, oneProcMs []float64
	var hits, misses uint64
	check := func(b []byte, err error) bool {
		out.attempted++
		if err == nil {
			err = checkOutput(b, want, &ref)
		}
		if err != nil {
			out.failed++
			fmt.Printf("  op %d failed: %v\n", out.attempted, err)
			return false
		}
		return true
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		freshState()
		rt0 := readRuntime()
		start := time.Now()
		b, err := untraced()
		el := time.Since(start)
		rt.add(readRuntime().sub(rt0))
		h, m := trace.MemoStats()
		hits, misses = hits+h, misses+m
		if check(b, err) {
			plainMs = append(plainMs, float64(el.Nanoseconds())/1e6)
		}

		freshState()
		root := t.startOp()
		b, err = traced(t, root)
		wall, spans, counts := t.finishOp(root)
		if check(b, err) {
			tracedMs = append(tracedMs, float64(wall.Nanoseconds())/1e6)
			sums.add(wall, spans, counts)
		}
		if beside != nil {
			if err := beside(t); err != nil {
				out.failf("beside measurement: %v", err)
			}
		}

		freshState()
		prev := runtime.GOMAXPROCS(1)
		root = t.startOp()
		b, err = traced(t, root)
		wall, _, _ = t.finishOp(root)
		runtime.GOMAXPROCS(prev)
		if check(b, err) {
			oneProcMs = append(oneProcMs, float64(wall.Nanoseconds())/1e6)
		}
	}
	sums.report(out)
	for k, v := range sums.counts {
		out.add(k, v/float64(max(sums.ops, 1)), "count", sums.ops)
	}
	n := float64(max(rt.ops, 1))
	out.add("trace.generate_calls", float64(misses)/n, "count", rt.ops)
	if hits+misses > 0 {
		out.add("trace.memo_hit_ratio", float64(hits)/float64(hits+misses), "ratio", rt.ops)
	}
	rt.report(out)
	rt.print("runtime (untraced ops)")
	out.add("op.untraced_ms", quantile(plainMs, 0.5), "ms", len(plainMs))
	out.add("op.tracing_overhead_ms", quantile(tracedMs, 0.5)-quantile(plainMs, 0.5), "ms", len(tracedMs))
	out.add("sched.speedup", quantile(oneProcMs, 0.5)/quantile(tracedMs, 0.5), "x", len(oneProcMs))
	return out, t.writeSpans(spanOut)
}

// tracedPaper replays renderPaper's work through the layers' public
// calls — the calls internal/experiments makes, in the same order and
// on the same sched.Grid — with a span around each call.
func tracedPaper(t *tracer, root int32, o experiments.Opts) ([3]string, error) {
	var out [3]string
	sp := t.begin(root, "experiments.table3")
	t3, err := tracedTable3(t, sp, o)
	if err != nil {
		return out, err
	}
	out[0] = t3.Render()
	t.end(sp)

	sp = t.begin(root, "experiments.figure5")
	f5, err := tracedFigure5(t, sp, o)
	if err != nil {
		return out, err
	}
	out[1] = f5.Render()
	t.end(sp)

	sp = t.begin(root, "experiments.figure6")
	f6, err := tracedFigure6(t, sp, o)
	if err != nil {
		return out, err
	}
	out[2] = f6.Render()
	t.end(sp)
	return out, nil
}

// tracedTable3 mirrors experiments.Table3.
func tracedTable3(t *tracer, sp int32, o experiments.Opts) (experiments.Table3Result, error) {
	res := experiments.Table3Result{Exec: 1}
	for i, typ := range instances.Table3Types() {
		var tr *trace.Trace
		err := t.do(sp, "trace.generate", func() (err error) {
			tr, err = trace.Generate(typ, trace.GenOptions{Days: 61, Seed: o.Seed + int64(i)*211, DwellSlots: 1})
			return err
		})
		if err != nil {
			return res, err
		}
		var ecdf *dist.Empirical
		if err := t.do(sp, "dist.ecdf", func() (err error) { ecdf, err = tr.ECDF(0); return err }); err != nil {
			return res, err
		}
		m := core.Market{Price: ecdf, OnDemand: instances.MustLookup(typ).OnDemand}
		var oneTime, p10, p30 core.Bid
		err = t.do(sp, "core.bid", func() (err error) {
			if oneTime, err = m.OneTimeBid(core.Job{Exec: res.Exec}); err != nil {
				return err
			}
			if p10, err = m.PersistentBid(core.Job{Exec: res.Exec, Recovery: timeslot.Seconds(10)}); err != nil {
				return err
			}
			p30, err = m.PersistentBid(core.Job{Exec: res.Exec, Recovery: timeslot.Seconds(30)})
			return err
		})
		if err != nil {
			return res, err
		}
		t.count("core.bid_calls", 3)
		var best float64
		err = t.do(sp, "trace.offline", func() error {
			hist, err := tr.LastHours(timeslot.Hours(10))
			if err != nil {
				return err
			}
			best, err = hist.BestOfflinePrice(res.Exec)
			return err
		})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, experiments.Table3Row{
			Type: typ, OnDemand: m.OnDemand, OneTime: oneTime.Price,
			Persistent10: p10.Price, Persistent30: p30.Price,
			BestOffline: best, BestOfflineUnderbids: best < oneTime.Price,
		})
	}
	return res, nil
}

// offsets mirrors the experiments' submission offsets within a day.
func offsets(n int, seed int64) []int {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(288)
	}
	return out
}

// tracedSingleRun mirrors the experiments' single-instance run: a
// fresh region over a generated trace, a client warmed through the
// two-month history, then one strategy.
func tracedSingleRun(t *tracer, sp int32, typ instances.Type, strategy string, seed int64, offset, days int) (client.Report, error) {
	var tr *trace.Trace
	err := t.do(sp, "trace.generate", func() (err error) {
		tr, err = trace.Generate(typ, trace.GenOptions{Days: days, Seed: seed})
		return err
	})
	if err != nil {
		return client.Report{}, err
	}
	var region *cloud.Region
	if err := t.do(sp, "cloud.region", func() (err error) { region, err = cloud.NewRegion(tr); return err }); err != nil {
		return client.Report{}, err
	}
	var cl *client.Client
	err = t.do(sp, "client.skip", func() (err error) {
		if cl, err = client.New(region); err != nil {
			return err
		}
		return cl.Skip(historySlots + offset)
	})
	if err != nil {
		return client.Report{}, err
	}
	spec := job.Spec{ID: "exp-job", Type: typ, Exec: 1}
	var best float64
	if strategy == "best-offline" {
		err := t.do(sp, "trace.offline", func() error {
			hist, err := region.PriceHistory(typ, timeslot.Hours(10))
			if err != nil {
				return err
			}
			best, err = hist.BestOfflinePrice(1)
			return err
		})
		if err != nil {
			return client.Report{}, err
		}
	}
	var rep client.Report
	err = t.do(sp, "client.run", func() (err error) {
		switch strategy {
		case "one-time":
			rep, err = cl.RunOneTime(spec)
		case "persistent-10":
			spec.Recovery = timeslot.Seconds(10)
			rep, err = cl.RunPersistent(spec)
		case "persistent-30":
			spec.Recovery = timeslot.Seconds(30)
			rep, err = cl.RunPersistent(spec)
		case "percentile-90":
			spec.Recovery = timeslot.Seconds(30)
			rep, err = cl.RunPercentile(spec, 90, cloud.Persistent)
		case "best-offline":
			rep, err = cl.RunFixedBid("best-offline", spec, best, cloud.OneTime)
		default:
			err = fmt.Errorf("unknown strategy %q", strategy)
		}
		return err
	})
	t.count("client.runs", 1)
	return rep, err
}

// tracedFigure5 mirrors experiments.Figure5.
func tracedFigure5(t *tracer, sp int32, o experiments.Opts) (experiments.Fig5Result, error) {
	types := instances.Table3Types()
	type runResult struct{ rep, bo client.Report }
	results := make([][]runResult, len(types))
	cellOffs := make([][]int, len(types))
	for ti := range types {
		results[ti] = make([]runResult, o.Runs)
		cellOffs[ti] = offsets(o.Runs, o.Seed+int64(ti))
	}
	err := sched.Grid(len(types), o.Runs, nil, func(ti, run int) error {
		seed := o.Seed + int64(ti)*1013 + int64(run)*7919
		rep, err := tracedSingleRun(t, sp, types[ti], "one-time", seed, cellOffs[ti][run], o.Days)
		if err != nil {
			return err
		}
		bo, err := tracedSingleRun(t, sp, types[ti], "best-offline", seed, cellOffs[ti][run], o.Days)
		if err != nil {
			return err
		}
		results[ti][run] = runResult{rep, bo}
		return nil
	})
	if err != nil {
		return experiments.Fig5Result{}, err
	}
	var res experiments.Fig5Result
	for ti, typ := range types {
		row := experiments.Fig5Row{Type: typ, Runs: o.Runs}
		var measured, analytic, offline float64
		var completed, offlineDone int
		for _, r := range results[ti] {
			if r.rep.Outcome.Completed {
				completed++
				measured += r.rep.Outcome.Cost
				analytic += r.rep.Analytic.ExpectedCost
			} else {
				row.Interrupted++
			}
			if r.bo.Outcome.Completed {
				offlineDone++
				offline += r.bo.Outcome.Cost
			} else {
				row.BestOfflineFailed++
			}
		}
		if completed == 0 {
			return experiments.Fig5Result{}, errors.New("every one-time run was interrupted")
		}
		row.MeasuredCost = measured / float64(completed)
		row.AnalyticCost = analytic / float64(completed)
		row.OnDemandCost = instances.MustLookup(typ).OnDemand
		row.Savings = 1 - row.MeasuredCost/row.OnDemandCost
		if offlineDone > 0 {
			row.BestOfflineCost = offline / float64(offlineDone)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fig6Strategies mirrors the Figure 6 comparison arms.
var fig6Strategies = []string{"persistent-10", "persistent-30", "percentile-90"}

// tracedFigure6 mirrors experiments.Figure6.
func tracedFigure6(t *tracer, sp int32, o experiments.Opts) (experiments.Fig6Result, error) {
	types := instances.Table3Types()
	type arm struct {
		rep client.Report
		ok  bool
	}
	type pair struct {
		base arm
		arms map[string]arm
	}
	pairs := make([][]pair, len(types))
	cellOffs := make([][]int, len(types))
	for ti := range types {
		pairs[ti] = make([]pair, o.Runs)
		cellOffs[ti] = offsets(o.Runs, o.Seed+int64(ti))
	}
	err := sched.Grid(len(types), o.Runs, nil, func(ti, run int) error {
		seed := o.Seed + int64(ti)*1013 + int64(run)*7919
		base, err := tracedSingleRun(t, sp, types[ti], "one-time", seed, cellOffs[ti][run], o.Days)
		if err != nil {
			return err
		}
		p := pair{base: arm{base, base.Outcome.Completed}, arms: map[string]arm{}}
		if p.base.ok {
			for _, s := range fig6Strategies {
				rep, err := tracedSingleRun(t, sp, types[ti], s, seed, cellOffs[ti][run], o.Days)
				if err != nil {
					return err
				}
				p.arms[s] = arm{rep, rep.Outcome.Completed}
			}
		}
		pairs[ti][run] = p
		return nil
	})
	if err != nil {
		return experiments.Fig6Result{}, err
	}
	var res experiments.Fig6Result
	for ti, typ := range types {
		for _, s := range fig6Strategies {
			var bid, price, compl, cost, inter float64
			var n int
			for _, p := range pairs[ti] {
				a, ok := p.arms[s]
				if !p.base.ok || !ok || !a.ok {
					continue
				}
				base, rep := p.base.rep, a.rep
				n++
				bid += rep.BidPrice
				price += rep.Outcome.PricePerRunHour/base.Outcome.PricePerRunHour - 1
				compl += float64(rep.Outcome.Completion)/float64(base.Outcome.Completion) - 1
				cost += rep.Outcome.Cost/base.Outcome.Cost - 1
				inter += float64(rep.Outcome.Interruptions)
			}
			if n == 0 {
				return experiments.Fig6Result{}, fmt.Errorf("no completed pairs for %s/%s", typ, s)
			}
			fn := float64(n)
			res.Rows = append(res.Rows, experiments.Fig6Row{
				Type: typ, Strategy: s, BidPrice: bid / fn, PriceDiff: price / fn,
				CompletionDiff: compl / fn, CostDiff: cost / fn, Interruptions: inter / fn, Runs: n,
			})
		}
	}
	return res, nil
}
