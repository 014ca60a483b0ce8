package main

import (
	"slices"
	"strings"
	"testing"
)

// committedRecord decodes the repository's BENCH.json; readReport
// refuses unknown fields, so the schema and the record cannot drift
// apart.
func committedRecord(t *testing.T) Report {
	t.Helper()
	rep, err := readReport("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCommittedRecordPassesItsOwnGate(t *testing.T) {
	rec := committedRecord(t)
	if fails := check(rec, &rec, false); len(fails) != 0 {
		t.Fatalf("committed record fails its own gate:\n%s", strings.Join(fails, "\n"))
	}
}

func speedupIn(t *testing.T, rep *Report, name string) *Speedup {
	for i := range rep.Speedups {
		if rep.Speedups[i].Name == name {
			return &rep.Speedups[i]
		}
	}
	t.Fatalf("no speedup %s in the record", name)
	return nil
}

func singleIn(t *testing.T, rep *Report, name string) *Result {
	for i := range rep.Singles {
		if rep.Singles[i].Name == name {
			return &rep.Singles[i]
		}
	}
	t.Fatalf("no single %s in the record", name)
	return nil
}

func normalizedIn(t *testing.T, rep *Report, name string) *Normalized {
	for i := range rep.Normalized {
		if rep.Normalized[i].Name == name {
			return &rep.Normalized[i]
		}
	}
	t.Fatalf("no normalized pair %s in the record", name)
	return nil
}

func overheadIn(t *testing.T, rep *Report, name string) *Overhead {
	for i := range rep.Overheads {
		if rep.Overheads[i].Name == name {
			return &rep.Overheads[i]
		}
	}
	t.Fatalf("no overhead %s in the record", name)
	return nil
}

// TestCheckCatchesEachGate breaks one value of the committed record
// per row and requires a failure naming that gate (want == "": the
// change must pass).
func TestCheckCatchesEachGate(t *testing.T) {
	type mutation func(t *testing.T, fresh, committed *Report)
	slower := func(name string) mutation {
		return func(t *testing.T, fresh, _ *Report) {
			s := speedupIn(t, fresh, name)
			s.Ratio *= 1.11
			s.SpeedupX /= 1.11
		}
	}
	overCeiling := func(name string, ceiling float64) mutation {
		return func(t *testing.T, fresh, _ *Report) {
			normalizedIn(t, fresh, name).Ratio = ceiling * 1.001
		}
	}
	notMeasured := func(name string) mutation {
		return func(t *testing.T, fresh, _ *Report) {
			fresh.Normalized = slices.DeleteFunc(fresh.Normalized, func(n Normalized) bool { return n.Name == name })
		}
	}
	speedupOf := func(name string, x float64) mutation {
		return func(t *testing.T, fresh, _ *Report) {
			s := speedupIn(t, fresh, name)
			s.SpeedupX, s.Ratio = x, 1/x
		}
	}
	quoteAlloc := func(name string, inCommitted bool) mutation {
		return func(t *testing.T, fresh, committed *Report) {
			rep := fresh
			if inCommitted {
				rep = committed
			}
			singleIn(t, rep, name).AllocsPerOp = 1
		}
	}
	macroOverhead := func(t *testing.T, fresh, _ *Report) {
		overheadIn(t, fresh, "experiments.servedrill+tsdb").OverheadPct = 5.01
	}
	cases := []struct {
		name   string
		mutate mutation
		quick  bool
		want   string
	}{
		{"table3 ratio +11%", slower("experiments.table3"), false, "experiments.table3: ratio"},
		{"fleet_run over its ceiling", overCeiling("lanes.fleet_run", maxFleetRunRatio), true, "lanes.fleet_run: median ratio"},
		{"market_step over its ceiling", overCeiling("client.market_step", maxMarketStepRatio), true, "client.market_step: median ratio"},
		{"cell_window over its ceiling", overCeiling("dist.cell_window", maxCellWindowRatio), true, "dist.cell_window: median ratio"},
		{"fleet_run not measured", notMeasured("lanes.fleet_run"), true, "lanes.fleet_run: normalized pair not measured"},
		{"market_step not measured", notMeasured("client.market_step"), true, "client.market_step: normalized pair not measured"},
		{"cell_window not measured", notMeasured("dist.cell_window"), true, "dist.cell_window: normalized pair not measured"},
		{"table3 memo ratio > 1", speedupOf("experiments.table3", 0.99), false, "experiments.table3: trace memo speedup"},
		{"table3 memo allocs not lower", func(t *testing.T, fresh, _ *Report) {
			s := speedupIn(t, fresh, "experiments.table3")
			s.Optimized.AllocsPerOp = s.Baseline.AllocsPerOp
		}, false, "experiments.table3: trace memo allocs"},
		{"client.market 9 allocs", func(t *testing.T, fresh, _ *Report) {
			singleIn(t, fresh, "client.market").AllocsPerOp = 9
		}, false, "client.market: 9 allocs/op"},
		{"client.market 4097 B", func(t *testing.T, fresh, _ *Report) {
			singleIn(t, fresh, "client.market").BytesPerOp = 4097
		}, false, "client.market: 4097 B/op"},
		{"quote_onetime allocates", quoteAlloc("serve.quote_onetime", false), false, "serve.quote_onetime: 1 allocs/op (0 B/op) in the fresh"},
		{"quote_persistent allocates", quoteAlloc("serve.quote_persistent", false), false, "serve.quote_persistent: 1 allocs/op (0 B/op) in the fresh"},
		{"quote_shed_deadline allocates", quoteAlloc("serve.quote_shed_deadline", false), false, "serve.quote_shed_deadline: 1 allocs/op (0 B/op) in the fresh"},
		{"committed quote_onetime allocates", quoteAlloc("serve.quote_onetime", true), false, "serve.quote_onetime: 1 allocs/op (0 B/op) in the committed"},
		{"committed quote_persistent allocates", quoteAlloc("serve.quote_persistent", true), false, "serve.quote_persistent: 1 allocs/op (0 B/op) in the committed"},
		{"committed quote_shed_deadline allocates", quoteAlloc("serve.quote_shed_deadline", true), false, "serve.quote_shed_deadline: 1 allocs/op (0 B/op) in the committed"},
		{"event.emit allocates", func(t *testing.T, fresh, _ *Report) {
			overheadIn(t, fresh, "event.emit").Instrumented.AllocsPerOp = 1
		}, false, "event.emit: flight-recorder emit allocates"},
		{"macro overhead 5.01%", macroOverhead, false, "experiments.servedrill+tsdb: macro overhead +5.01%"},
		{"macro overhead 5.01% in quick mode", macroOverhead, true, ""},
		{"committed speedup not measured", func(t *testing.T, fresh, _ *Report) {
			fresh.Speedups = nil
		}, false, "experiments.table3: speedup in the committed record but not measured"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh, committed := committedRecord(t), committedRecord(t)
			c.mutate(t, &fresh, &committed)
			fails := check(fresh, &committed, c.quick)
			if c.want == "" {
				if len(fails) != 0 {
					t.Fatalf("want no failure, got:\n%s", strings.Join(fails, "\n"))
				}
				return
			}
			for _, f := range fails {
				if strings.HasPrefix(f, c.want) {
					return
				}
			}
			t.Fatalf("want a failure starting %q, got:\n%s", c.want, strings.Join(fails, "\n"))
		})
	}
}
