package client

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/retry"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// spikyRegion builds a region whose price spikes above any plateau
// bid shortly after the two-month history, forcing a one-time failure
// at a controlled point.
func spikyRegion(t *testing.T, spikeAfter int) *cloud.Region {
	t.Helper()
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 63, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prices := append([]float64(nil), tr.Prices...)
	// Flatten the job window, then insert the spike.
	start := 61 * 288
	for i := start; i < start+40 && i < len(prices); i++ {
		prices[i] = 0.0301
	}
	if spikeAfter >= 0 {
		prices[start+spikeAfter] = 0.34 // above any sane bid, below π̄
	}
	tr2, err := trace.New(tr.Type, tr.Grid, prices)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cloud.NewRegion(tr2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fallbackClient(t *testing.T, spikeAfter int) *Client {
	t.Helper()
	c, err := New(spikyRegion(t, spikeAfter))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Skip(61 * 288); err != nil {
		t.Fatal(err)
	}
	return c
}

var fbSpec = job.Spec{ID: "fb", Type: instances.R3XLarge, Exec: 1, Recovery: timeslot.Seconds(30)}

func TestFallbackNotNeededOnQuietTrace(t *testing.T) {
	c := fallbackClient(t, -1) // no spike
	rep, err := c.RunOneTimeWithFallback(fbSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.FellBack {
		t.Fatalf("quiet trace: completed=%v fellback=%v", rep.Completed, rep.FellBack)
	}
	if rep.TotalCost > 0.05 {
		t.Errorf("cost %v", rep.TotalCost)
	}
}

func TestFallbackCompletesAfterSpike(t *testing.T) {
	// Spike at slot 7 of the job: roughly half the hour ran on spot.
	c := fallbackClient(t, 7)
	rep, err := c.RunOneTimeWithFallback(fbSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("fallback did not complete the job")
	}
	if !rep.FellBack {
		t.Fatal("expected a fallback")
	}
	if !rep.Spot.Outcome.Completed && rep.Spot.Outcome.Interruptions != 1 {
		t.Errorf("spot phase interruptions = %d", rep.Spot.Outcome.Interruptions)
	}
	// Cost: spot slots at ~0.03 plus the remainder on-demand at 0.35.
	if rep.TotalCost <= rep.Spot.Outcome.Cost {
		t.Error("fallback phase cost missing")
	}
	odWhole := 0.35 * 1.0
	if rep.TotalCost >= odWhole {
		t.Errorf("fallback total %v not below whole-job on-demand %v", rep.TotalCost, odWhole)
	}
	// The blended savings sit between pure-spot (≈91%) and zero.
	s := rep.Savings(0.35, 1)
	if s <= 0 || s >= 0.92 {
		t.Errorf("blended savings = %v", s)
	}
	// Completion accounts for both phases.
	if float64(rep.Completion) < 1 {
		t.Errorf("completion %v below the execution time", float64(rep.Completion))
	}
}

func TestFallbackEarlySpikeMostlyOnDemand(t *testing.T) {
	// Spike early (slot 3: the request launches at slot 1, so the
	// spike interrupts it almost immediately): nearly all work moves
	// on-demand, so the savings shrink but the job still completes.
	c := fallbackClient(t, 3)
	rep, err := c.RunOneTimeWithFallback(fbSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || !rep.FellBack {
		t.Fatalf("completed=%v fellback=%v", rep.Completed, rep.FellBack)
	}
	late := fallbackClient(t, 9)
	repLate, err := late.RunOneTimeWithFallback(fbSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !repLate.FellBack {
		t.Fatal("late spike should still fail the one-time request")
	}
	if rep.TotalCost <= repLate.TotalCost {
		t.Errorf("earlier failure should cost more: %v vs %v", rep.TotalCost, repLate.TotalCost)
	}
}

func TestFallbackSavingsZeroBase(t *testing.T) {
	if (FallbackReport{TotalCost: 1}).Savings(0, 1) != 0 {
		t.Error("zero baseline should yield zero savings")
	}
}

// TestFallbackSavingsGuards: every degenerate baseline — zero or
// negative price, zero or negative execution time, NaN either way —
// reports 0, never ±Inf or NaN.
func TestFallbackSavingsGuards(t *testing.T) {
	rep := FallbackReport{TotalCost: 0.1}
	cases := []struct {
		name  string
		price float64
		exec  timeslot.Hours
	}{
		{"zero-price", 0, 1},
		{"negative-price", -0.35, 1},
		{"zero-exec", 0.35, 0},
		{"negative-exec", 0.35, -1},
		{"both-zero", 0, 0},
		{"nan-price", math.NaN(), 1},
		{"nan-exec", 0.35, timeslot.Hours(math.NaN())},
	}
	for _, tc := range cases {
		if got := rep.Savings(tc.price, tc.exec); got != 0 {
			t.Errorf("%s: Savings = %v, want 0", tc.name, got)
		}
	}
	// Sanity: a healthy baseline still reports real savings.
	if got := rep.Savings(0.35, 1); !(got > 0 && got < 1) {
		t.Errorf("healthy baseline: Savings = %v", got)
	}
}

// TestFallbackTraceEndsMidFallback: the spike fails the one-time
// request near the end of the trace, so the on-demand fallback phase
// itself runs out of price history before finishing. That is not an
// error — the report says FellBack with Completed == false, and the
// bill covers only what actually ran.
func TestFallbackTraceEndsMidFallback(t *testing.T) {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 63, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the two-month history plus a short tail: the spot phase runs
	// a few slots, the spike kills it, and only ~4 slots remain for the
	// fallback — far short of the remaining work.
	start := 61 * 288
	prices := append([]float64(nil), tr.Prices[:start+10]...)
	for i := start; i < start+10; i++ {
		prices[i] = 0.0301
	}
	prices[start+5] = 0.34
	tr2, err := trace.New(tr.Type, tr.Grid, prices)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cloud.NewRegion(tr2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Skip(start); err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunOneTimeWithFallback(fbSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack {
		t.Fatal("expected the on-demand fallback to start")
	}
	if rep.Completed || rep.OnDemand.Completed {
		t.Fatal("job cannot complete on a truncated trace")
	}
	if rep.OnDemand.Cost <= 0 {
		t.Error("fallback phase ran some slots but billed nothing")
	}
	if rep.TotalCost != rep.Spot.Outcome.Cost+rep.OnDemand.Cost {
		t.Errorf("TotalCost %v != spot %v + on-demand %v",
			rep.TotalCost, rep.Spot.Outcome.Cost, rep.OnDemand.Cost)
	}
	if got := rep.Savings(0.35, 1); !(got > 0 && got < 1) {
		// Partial bills are still below the full on-demand baseline.
		t.Errorf("partial-run savings = %v", got)
	}
}

// submitOutage fails every spot submission transiently and no other
// call.
type submitOutage struct{ *chaos.Injector }

func (submitOutage) APIFault(op cloud.Op, slot int) error {
	if op == cloud.OpSubmit {
		return retry.Transient(fmt.Errorf("submit outage at slot %d", slot))
	}
	return nil
}

// TestFallbackSubmitExhaustedAsksDelegate: when every submission fails,
// RunOneTimeWithFallback goes on-demand only through the fallback gate,
// as every other strategy does. A vetoing delegate stops it with
// ErrFallbackVetoed; an allowing one sees the fallback counted and
// traced once.
func TestFallbackSubmitExhaustedAsksDelegate(t *testing.T) {
	for _, allow := range []bool{false, true} {
		c := fallbackClient(t, -1)
		noFaults, err := chaos.New(chaos.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Region.SetInjector(submitOutage{noFaults}); err != nil {
			t.Fatal(err)
		}
		c.SetMetrics(obs.New())
		rec := event.NewRecorder()
		c.SetTrace(rec)
		del := &recordingDelegate{allow: allow}
		c.Delegate = del

		rep, err := c.RunOneTimeWithFallback(fbSpec)
		if len(del.reasons) != 1 || del.reasons[0] != ReasonSubmitExhausted {
			t.Errorf("allow=%v: delegate consulted with %v, want [%s]", allow, del.reasons, ReasonSubmitExhausted)
		}
		if got := c.Metrics.CounterValue("client.submit.exhausted"); got != 1 {
			t.Errorf("allow=%v: client.submit.exhausted = %d, want 1", allow, got)
		}
		if !allow {
			if !errors.Is(err, ErrFallbackVetoed) {
				t.Fatalf("vetoed: err = %v (report %+v), want ErrFallbackVetoed", err, rep)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rep.FellBack || !rep.Completed {
			t.Fatalf("allowed: report %+v, want a completed on-demand fallback", rep)
		}
		if got := c.Metrics.CounterValue("client.fallback.on_demand"); got != 1 {
			t.Errorf("client.fallback.on_demand = %d, want 1", got)
		}
		n := 0
		for _, ev := range rec.Events() {
			if ev.Kind == event.FallbackOnDemand {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d FallbackOnDemand events, want 1", n)
		}
	}
}
