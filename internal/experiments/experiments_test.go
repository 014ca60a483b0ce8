package experiments

import (
	"strings"
	"testing"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

// fastOpts keeps the per-test run counts small; the full ten-run
// sweeps run via cmd/experiments and the benchmarks.
var fastOpts = Opts{Seed: 1, Runs: 3, Days: 63}

func TestTableRenderer(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "--") {
		t.Error("missing separator")
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("header/separator width mismatch: %q vs %q", lines[0], lines[1])
	}
}

func TestOffsetsDeterministicAndBounded(t *testing.T) {
	a := offsets(20, 5)
	b := offsets(20, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("offsets not deterministic")
		}
		if a[i] < 0 || a[i] >= 288 {
			t.Fatalf("offset %d out of a day", a[i])
		}
	}
}

func TestFigure3(t *testing.T) {
	res, err := Figure3(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Fits describe the data: the mixture (generative family)
		// fits essentially perfectly; the single-Pareto and
		// exponential forms capture the shape (mass-scale MSE small).
		if row.MixMSE > 1e-4 {
			t.Errorf("%s: mixture MSE %v", row.Type, row.MixMSE)
		}
		if row.ParetoMSE > 2e-2 {
			t.Errorf("%s: pareto MSE %v", row.Type, row.ParetoMSE)
		}
		if row.ExpMSE > 2e-2 {
			t.Errorf("%s: exponential MSE %v", row.Type, row.ExpMSE)
		}
		// §4.3: day and night prices share a distribution.
		if row.DayNightP <= 0.01 {
			t.Errorf("%s: day/night KS p = %v", row.Type, row.DayNightP)
		}
		// The price floor sits near the calibrated π̲ (≈8.6% of OD).
		spec := instances.MustLookup(row.Type)
		if row.FloorPrice < 0.05*spec.OnDemand || row.FloorPrice > 0.12*spec.OnDemand {
			t.Errorf("%s: floor %v vs on-demand %v", row.Type, row.FloorPrice, spec.OnDemand)
		}
	}
	if !strings.Contains(res.Render(), "pareto-MSE") {
		t.Error("render missing columns")
	}
}

func TestTable3(t *testing.T) {
	res, err := Table3(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The paper's bid ordering: persistent-10s ≤ persistent-30s ≤
		// one-time < on-demand.
		if !(row.Persistent10 <= row.Persistent30+1e-12) {
			t.Errorf("%s: p10 %v > p30 %v", row.Type, row.Persistent10, row.Persistent30)
		}
		if !(row.Persistent30 <= row.OneTime+1e-12) {
			t.Errorf("%s: p30 %v > one-time %v", row.Type, row.Persistent30, row.OneTime)
		}
		if !(row.OneTime < row.OnDemand) {
			t.Errorf("%s: one-time %v ≥ on-demand %v", row.Type, row.OneTime, row.OnDemand)
		}
		// Bids sit at deep-discount levels (≈9–25% of on-demand).
		if row.OneTime > 0.3*row.OnDemand {
			t.Errorf("%s: one-time bid %v too close to on-demand %v", row.Type, row.OneTime, row.OnDemand)
		}
	}
	if !strings.Contains(res.Render(), "persistent-30s") {
		t.Error("render missing columns")
	}
}

// TestTable3GeneratesOncePerType: from an empty memo, an instrumented
// Table 3 generates each type's history once and records it from the
// returned header, so the memo sees its 5 misses and no hit.
func TestTable3GeneratesOncePerType(t *testing.T) {
	trace.SetMemoCapacity(trace.DefaultMemoCapacity)
	defer trace.ResetMemo()
	o := fastOpts
	o.Metrics = obs.New()
	o.Trace = event.NewRecorder()
	o.TSDB = tsdb.New(tsdb.Config{})
	if _, err := Table3(o); err != nil {
		t.Fatal(err)
	}
	if hits, misses := trace.MemoStats(); hits != 0 || misses != 5 {
		t.Fatalf("Table 3 from an empty memo: %d hits, %d misses; want 0 and 5", hits, misses)
	}
	if got := o.Metrics.CounterValue("trace.slots_generated"); got != 5*61*288 {
		t.Fatalf("trace.slots_generated = %d, want the five histories' %d", got, 5*61*288)
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Headline: spot reduces cost by ≈90% vs on-demand.
		if row.Savings < 0.8 {
			t.Errorf("%s: savings %v", row.Type, row.Savings)
		}
		// Analytics track measurements (Fig. 5's close match).
		rel := row.MeasuredCost/row.AnalyticCost - 1
		if rel < -0.35 || rel > 0.35 {
			t.Errorf("%s: measured %v vs analytic %v", row.Type, row.MeasuredCost, row.AnalyticCost)
		}
	}
	if !strings.Contains(res.Render(), "savings") {
		t.Error("render missing columns")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, typ := range instances.Table3Types() {
		p10, ok := res.Row(typ, "persistent-10")
		if !ok {
			t.Fatalf("missing row %s", typ)
		}
		p30, _ := res.Row(typ, "persistent-30")
		// Fig. 6(a): persistent bids pay no more per running hour
		// than one-time bids (they bid lower).
		if p10.PriceDiff > 0.02 {
			t.Errorf("%s: p10 Δprice/h = %v", typ, p10.PriceDiff)
		}
		// Fig. 6(b): persistent completion times are no shorter.
		if p10.CompletionDiff < -0.02 || p30.CompletionDiff < -0.02 {
			t.Errorf("%s: completions shrank: %v, %v", typ, p10.CompletionDiff, p30.CompletionDiff)
		}
		// The 10s strategy bids lower than the 30s strategy.
		if p10.BidPrice > p30.BidPrice+1e-9 {
			t.Errorf("%s: bid(10s) %v > bid(30s) %v", typ, p10.BidPrice, p30.BidPrice)
		}
	}
	if !strings.Contains(res.Render(), "Δcost") {
		t.Error("render missing columns")
	}
}

func TestMapReduceEval(t *testing.T) {
	t4, f7, err := MapReduceEval(Opts{Seed: 1, Runs: 2, Days: 63})
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 5 || len(f7.Rows) != 5 {
		t.Fatalf("rows = %d, %d", len(t4.Rows), len(f7.Rows))
	}
	for i, row := range t4.Rows {
		// Eq. 20's minimum M is small (paper: 3 or 4).
		if row.Workers < 2 || row.Workers > 16 {
			t.Errorf("%s: M = %d", row.Setting.Name, row.Workers)
		}
		// Master is the cheap role (paper: 10–25% of slave cost).
		if row.MasterShare > 0.8 {
			t.Errorf("%s: master/slave = %v", row.Setting.Name, row.MasterShare)
		}
		f := f7.Rows[i]
		// Fig. 7: big savings, modest slowdown.
		if f.Savings < 0.75 {
			t.Errorf("%s: savings %v", f.Setting.Name, f.Savings)
		}
		if f.Slowdown < -0.05 {
			t.Errorf("%s: spot faster than on-demand? %v", f.Setting.Name, f.Slowdown)
		}
		if f.Slowdown > 1.0 {
			t.Errorf("%s: slowdown %v not modest", f.Setting.Name, f.Slowdown)
		}
	}
	if !strings.Contains(t4.Render(), "master-bid") || !strings.Contains(f7.Render(), "slowdown") {
		t.Error("render missing columns")
	}
}

func TestFigure4(t *testing.T) {
	res, err := Figure4(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("empty timeline")
	}
	// Segments tile the timeline contiguously.
	prev := 0
	for _, s := range res.Segments {
		if s.FromSlot != prev {
			t.Fatalf("gap at slot %d", s.FromSlot)
		}
		if s.ToSlot <= s.FromSlot {
			t.Fatalf("empty segment %+v", s)
		}
		prev = s.ToSlot
	}
	// Running segments respect the bid; idle segments exceed it.
	for _, s := range res.Segments {
		if s.State == SegIdle && s.MaxPrice <= res.Bid {
			t.Errorf("idle segment with max price %v ≤ bid %v", s.MaxPrice, res.Bid)
		}
	}
	if res.Outcome.Completed && res.Outcome.Interruptions >= 1 {
		// The searched-for eventful window: idle segments exist.
		var idle bool
		for _, s := range res.Segments {
			idle = idle || s.State == SegIdle
		}
		if !idle {
			t.Error("interruptions reported but no idle segment")
		}
	}
	if !strings.Contains(res.Render(), "running") {
		t.Error("render missing states")
	}
}

func TestStability(t *testing.T) {
	res, err := Stability(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Prop. 1: the queue is bounded — it spends almost no time
		// above the negative-drift threshold.
		if row.FracAboveThreshold > 0.05 {
			t.Errorf("%s: %v of slots above threshold", row.Type, row.FracAboveThreshold)
		}
		// The load hovers within a small factor of the equilibrium.
		if row.MeanLoad > 3*row.EquilibriumLoad || row.MeanLoad < row.EquilibriumLoad/3 {
			t.Errorf("%s: mean load %v vs equilibrium %v", row.Type, row.MeanLoad, row.EquilibriumLoad)
		}
		// Prices agree in mean between full dynamics and equilibrium.
		rel := row.SimPriceMean/row.EqPriceMean - 1
		if rel < -0.3 || rel > 0.3 {
			t.Errorf("%s: sim price mean %v vs equilibrium %v", row.Type, row.SimPriceMean, row.EqPriceMean)
		}
		// The queue gives the dynamics memory (§8): higher lag-1
		// autocorrelation than the white equilibrium draw.
		if row.SimAutocorr1 < row.EqAutocorr1 {
			t.Errorf("%s: sim autocorr %v below equilibrium %v", row.Type, row.SimAutocorr1, row.EqAutocorr1)
		}
	}
	if !strings.Contains(res.Render(), "threshold") {
		t.Error("render missing columns")
	}
}
