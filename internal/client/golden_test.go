package client

// Equivalence regression suite for the strategy extraction: the
// golden files under testdata/ pin the exact reports — schedules,
// costs, analytic predictions, telemetry — produced by the client
// BEFORE its pricing path was refactored behind the Strategy
// interface. The refactored entrypoints must reproduce them
// bit-identically (floats are formatted with %v, Go's shortest
// round-trip representation, so any ULP of drift fails the test).
//
// Regenerate with `go test ./internal/client -run Golden -update`
// only for an intentional behavior change.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the equivalence golden files")

// goldenHistorySlots is the two-month price-monitor history the §7.1
// experiments submit after.
const goldenHistorySlots = 61 * 288

// goldenClient builds a fresh seeded region and client advanced past
// the history warm-up — one independent substrate per (scenario,
// strategy) pair, as the client-path oracle of the §7.1 lane step
// (TestCellArmsMatchClient in internal/experiments) builds one per arm.
func goldenClient(t *testing.T, seed int64, offset int) (*Client, *cloud.Region) {
	t.Helper()
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 63, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	region, err := cloud.NewRegion(tr)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(region)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Skip(goldenHistorySlots + offset); err != nil {
		t.Fatal(err)
	}
	return cl, region
}

// formatReport pins every observable field of a Report.
func formatReport(name string, rep Report, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]\n", name)
	if err != nil {
		fmt.Fprintf(&b, "error=%v\n", err)
		return b.String()
	}
	a, o, tl := rep.Analytic, rep.Outcome, rep.Telemetry
	fmt.Fprintf(&b, "strategy=%s bid=%v\n", rep.Strategy, rep.BidPrice)
	fmt.Fprintf(&b, "analytic: price=%v accept=%v spot=%v runtime=%v completion=%v interruptions=%v cost=%v odcost=%v beats=%v\n",
		a.Price, a.AcceptProb, a.ExpectedSpot, float64(a.ExpectedRunTime),
		float64(a.ExpectedCompletion), a.ExpectedInterruptions, a.ExpectedCost,
		a.OnDemandCost, a.BeatsOnDemand)
	fmt.Fprintf(&b, "outcome: completed=%v completion=%v runtime=%v idle=%v recovery=%v interruptions=%d cost=%v pph=%v ckptfail=%d\n",
		o.Completed, float64(o.Completion), float64(o.RunTime), float64(o.IdleTime),
		float64(o.RecoveryTime), o.Interruptions, o.Cost, o.PricePerRunHour,
		o.CheckpointFailures)
	fmt.Fprintf(&b, "telemetry: stale=%v age=%d fetchretries=%d submitretries=%d rejected=%d fellback=%v stalled=%v\n",
		tl.Stale, tl.ECDFAgeSlots, tl.FetchRetries, tl.SubmitRetries,
		tl.RejectedQuotes, tl.FellBackOnDemand, tl.Stalled)
	return b.String()
}

// goldenRuns executes the four incumbent strategies on one scenario,
// each against its own fresh region (identical traces via the seed).
func goldenRuns(t *testing.T, seed int64, offset int) string {
	t.Helper()
	specOT := job.Spec{ID: "golden-job", Type: instances.R3XLarge, Exec: 1}
	spec30 := specOT
	spec30.Recovery = timeslot.Seconds(30)
	var b strings.Builder
	{
		cl, _ := goldenClient(t, seed, offset)
		rep, err := cl.RunOneTime(specOT)
		b.WriteString(formatReport("one-time", rep, err))
	}
	{
		cl, _ := goldenClient(t, seed, offset)
		rep, err := cl.RunPersistent(spec30)
		b.WriteString(formatReport("persistent", rep, err))
	}
	{
		cl, _ := goldenClient(t, seed, offset)
		rep, err := cl.RunPercentile(spec30, 90, cloud.Persistent)
		b.WriteString(formatReport("percentile-90", rep, err))
	}
	{
		cl, region := goldenClient(t, seed, offset)
		hist, err := region.PriceHistory(instances.R3XLarge, timeslot.Hours(10))
		if err != nil {
			t.Fatal(err)
		}
		best, err := hist.BestOfflinePrice(1)
		if err != nil {
			t.Fatal(err)
		}
		rep, rerr := cl.RunFixedBid("best-offline", specOT, best, cloud.OneTime)
		b.WriteString(formatReport("best-offline", rep, rerr))
	}
	return b.String()
}

// goldenScenarios are the seed scenarios the equivalence contract
// covers: two independent traces, submitted at different day offsets.
var goldenScenarios = []struct {
	name   string
	seed   int64
	offset int
}{
	{"seed1", 1, 137},
	{"seed7", 7, 41},
}

func goldenPath() string {
	return filepath.Join("testdata", "strategy_equivalence.golden")
}

func renderGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, sc := range goldenScenarios {
		fmt.Fprintf(&b, "== scenario %s seed=%d offset=%d\n", sc.name, sc.seed, sc.offset)
		b.WriteString(goldenRuns(t, sc.seed, sc.offset))
	}
	return b.String()
}

func TestStrategyEquivalenceGolden(t *testing.T) {
	got := renderGolden(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath(), len(got))
		return
	}
	want, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("strategy reports diverge from the pre-refactor golden at line %d:\n golden: %s\n got:    %s", i+1, w, g)
		}
	}
	t.Fatal("strategy reports differ from golden (length only?)")
}
