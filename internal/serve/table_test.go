package serve

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// benchTable keeps BenchmarkBuildTable's result live.
var benchTable *QuoteTable

// BenchmarkBuildTable times one market's table build, the work
// MaybeRebuild does per market on each rebuild: the default grids' 7
// one-time and 41 valid persistent cells solved on a 17,568-sample
// snapshot (the default 61-day window, full) of a dwell-18 r3.xlarge
// trace.
func BenchmarkBuildTable(b *testing.B) {
	cfg, err := Config{Types: []instances.Type{instances.R3XLarge}}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := dist.NewEmpirical(tr.Prices[len(tr.Prices)-cfg.WindowSlots:], 0)
	if err != nil {
		b.Fatal(err)
	}
	key := Key{Region: cfg.Region, Type: instances.R3XLarge}
	od := instances.MustLookup(instances.R3XLarge).OnDemand
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTable = buildTable(key, od, snap, 1, 0, 0, cfg.ExecGridHours, cfg.RecoveryGridHours, timeslot.DefaultSlot)
	}
}
