package job

import (
	"errors"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

const slotH = 1.0 / 12.0

func mkRegion(t *testing.T, prices []float64) *cloud.Region {
	t.Helper()
	tr, err := trace.New(instances.R3XLarge, timeslot.NewGrid(timeslot.DefaultSlot), prices)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cloud.NewRegion(tr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func flat(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

var spec = Spec{ID: "job-1", Type: instances.R3XLarge, Exec: timeslot.Hours(3 * slotH), Recovery: timeslot.Seconds(30)}

func TestSpecValidate(t *testing.T) {
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Type: instances.R3XLarge, Exec: 1}, // no ID
		{ID: "x", Type: instances.R3XLarge}, // no exec
		{ID: "x", Type: instances.R3XLarge, Exec: 1, Recovery: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestOnDemandJobRunsToCompletion(t *testing.T) {
	r := mkRegion(t, flat(10, 0.03))
	tr, err := NewOnDemandJob(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(r.Tick, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("on-demand job did not complete")
	}
	// 3 slots of work, no interruptions.
	if math.Abs(float64(out.Completion)-3*slotH) > 1e-12 {
		t.Errorf("completion = %v", float64(out.Completion))
	}
	if math.Abs(float64(out.RunTime)-3*slotH) > 1e-12 {
		t.Errorf("run time = %v", float64(out.RunTime))
	}
	if out.Interruptions != 0 || float64(out.IdleTime) != 0 {
		t.Error("on-demand job should never idle")
	}
	od := instances.MustLookup(instances.R3XLarge).OnDemand
	if want := 3 * slotH * od; math.Abs(out.Cost-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", out.Cost, want)
	}
	if math.Abs(out.PricePerRunHour-od) > 1e-9 {
		t.Errorf("price per hour = %v", out.PricePerRunHour)
	}
	if tr.Status() != Done {
		t.Errorf("status = %v", tr.Status())
	}
}

func TestSpotJobNoInterruption(t *testing.T) {
	r := mkRegion(t, flat(10, 0.03))
	tr, err := NewSpotJob(r, nil, spec, 0.04, cloud.OneTime)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(r.Tick, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("job did not complete")
	}
	if out.Interruptions != 0 {
		t.Errorf("interruptions = %d", out.Interruptions)
	}
	if want := 3 * slotH * 0.03; math.Abs(out.Cost-want) > 1e-12 {
		t.Errorf("cost = %v, want %v (spot price billing)", out.Cost, want)
	}
}

func TestOneTimeJobFailsOnOutbid(t *testing.T) {
	prices := []float64{0.03, 0.03, 0.09, 0.03, 0.03, 0.03}
	r := mkRegion(t, prices)
	tr, err := NewSpotJob(r, nil, spec, 0.04, cloud.OneTime)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(r.Tick, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("job should have failed")
	}
	if tr.Status() != Failed {
		t.Errorf("status = %v", tr.Status())
	}
	if out.Interruptions != 1 {
		t.Errorf("interruptions = %d", out.Interruptions)
	}
}

func TestPersistentJobRecovers(t *testing.T) {
	// Work 3 slots; outbid after 1 slot of work; recovery 30s eats
	// into the next running slot.
	prices := []float64{0.03, 0.03, 0.09, 0.03, 0.03, 0.03, 0.03, 0.03}
	r := mkRegion(t, prices)
	vol := checkpoint.NewVolume()
	tr, err := NewSpotJob(r, vol, spec, 0.04, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(r.Tick, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("persistent job did not complete")
	}
	if out.Interruptions != 1 {
		t.Errorf("interruptions = %d", out.Interruptions)
	}
	if math.Abs(float64(out.RecoveryTime)-30.0/3600.0) > 1e-12 {
		t.Errorf("recovery time = %v", float64(out.RecoveryTime))
	}
	// Work done: slot1 (full), slot3 (minus 30s), slot4 (full),
	// slot5 (the remaining 30s worth) → 4 running slots, 1 idle.
	if math.Abs(float64(out.RunTime)-4*slotH) > 1e-12 {
		t.Errorf("run time = %v, want 4 slots", float64(out.RunTime))
	}
	if math.Abs(float64(out.IdleTime)-slotH) > 1e-12 {
		t.Errorf("idle = %v, want 1 slot", float64(out.IdleTime))
	}
	// Completion spans slots 1..5.
	if math.Abs(float64(out.Completion)-5*slotH) > 1e-12 {
		t.Errorf("completion = %v", float64(out.Completion))
	}
	// Cost: 4 running slots at 0.03.
	if want := 4 * slotH * 0.03; math.Abs(out.Cost-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", out.Cost, want)
	}
	// The checkpoint volume saw exactly one save and one restore.
	if len(vol.History()) != 1 {
		t.Errorf("checkpoint history = %d entries", len(vol.History()))
	}
}

func TestJobIdlesUntilPriceDrops(t *testing.T) {
	prices := append([]float64{0.03, 0.09, 0.09, 0.09}, flat(6, 0.03)...)
	r := mkRegion(t, prices)
	tr, err := NewSpotJob(r, nil, Spec{ID: "j", Type: instances.R3XLarge, Exec: timeslot.Hours(slotH)}, 0.04, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(r.Tick, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("did not complete")
	}
	// Slots 1-3 pending (price high), slot 4 runs and finishes.
	if math.Abs(float64(out.IdleTime)-3*slotH) > 1e-12 {
		t.Errorf("idle = %v", float64(out.IdleTime))
	}
	if out.Interruptions != 0 {
		t.Error("pending time is not an interruption")
	}
}

func TestTraceExhaustionReturnsPartialOutcome(t *testing.T) {
	r := mkRegion(t, flat(3, 0.09)) // price always above bid
	tr, err := NewSpotJob(r, nil, spec, 0.04, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(r.Tick, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Error("cannot have completed")
	}
	if tr.Status() == Done {
		t.Error("status should not be done")
	}
}

func TestMultiSlotRecovery(t *testing.T) {
	// Recovery of 1.5 slots spans two running slots.
	long := Spec{ID: "long", Type: instances.R3XLarge,
		Exec: timeslot.Hours(4 * slotH), Recovery: timeslot.Hours(1.5 * slotH)}
	prices := append([]float64{0.03, 0.03, 0.09}, flat(12, 0.03)...)
	r := mkRegion(t, prices)
	out, err := func() (Outcome, error) {
		tr, err := NewSpotJob(r, nil, long, 0.04, cloud.Persistent)
		if err != nil {
			return Outcome{}, err
		}
		return Run(r.Tick, tr, nil)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("did not complete")
	}
	// Work: 1 slot before interruption; recovery consumes 1.5 slots;
	// remaining 3 slots of work → run slots = 1 + ceil(1.5+3) = 1+5?
	// Total billed running time = work + recovery = 4 + 1.5 = 5.5
	// slots → 6 slot-grains observed (last slot partially used).
	if math.Abs(float64(out.RecoveryTime)-1.5*slotH) > 1e-12 {
		t.Errorf("recovery = %v", float64(out.RecoveryTime))
	}
	if got := float64(out.RunTime); math.Abs(got-6*slotH) > 1e-12 {
		t.Errorf("run time = %v slots, want 6", got/slotH)
	}
}

// TestRunEachHook: each runs once after every slot that leaves the job
// live and never after it is done; a stop returns the outcome so far,
// and an error from each aborts the run.
func TestRunEachHook(t *testing.T) {
	r := mkRegion(t, flat(10, 0.03))
	tr, err := NewSpotJob(r, nil, spec, 0.04, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	out, err := Run(r.Tick, tr, func() (bool, error) {
		if tr.Done() {
			t.Error("each ran after the job was done")
		}
		calls++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 slots of work: the third completes the job, so each runs twice.
	if !out.Completed || calls != 2 {
		t.Fatalf("completed=%v after %d each calls, want true after 2", out.Completed, calls)
	}

	r = mkRegion(t, flat(10, 0.03))
	tr, err = NewSpotJob(r, nil, spec, 0.04, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Run(r.Tick, tr, func() (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || tr.Done() || out.RunTime != timeslot.Hours(slotH) || r.Now() != 1 {
		t.Fatalf("stop after one slot: outcome %+v at slot %d", out, r.Now())
	}
	if out != tr.Outcome() {
		t.Fatalf("stop returned %+v, tracker reports %+v", out, tr.Outcome())
	}

	boom := errors.New("boom")
	r = mkRegion(t, flat(10, 0.03))
	tr, err = NewSpotJob(r, nil, spec, 0.04, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(r.Tick, tr, func() (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Fatalf("each error: got %v, want %v", err, boom)
	}
}

func TestTrackerAccessors(t *testing.T) {
	r := mkRegion(t, flat(3, 0.03))
	tr, err := NewSpotJob(r, nil, spec, 0.04, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Spec().ID != "job-1" {
		t.Error("Spec lost")
	}
	if tr.Request() == nil {
		t.Error("Request missing")
	}
	if tr.Status() != Pending {
		t.Errorf("initial status = %v", tr.Status())
	}
	od, err := NewOnDemandJob(r, Spec{ID: "od", Type: instances.R3XLarge, Exec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if od.Request() != nil {
		t.Error("on-demand job has no request")
	}
}

func TestNewJobValidation(t *testing.T) {
	r := mkRegion(t, flat(3, 0.03))
	if _, err := NewSpotJob(r, nil, Spec{}, 0.04, cloud.OneTime); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := NewSpotJob(r, nil, spec, 0, cloud.OneTime); err == nil {
		t.Error("zero bid accepted")
	}
	if _, err := NewOnDemandJob(r, Spec{}); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := NewSpotJob(r, nil, Spec{ID: "x", Type: "bogus", Exec: 1}, 0.04, cloud.OneTime); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestStatusStringer(t *testing.T) {
	for _, s := range []Status{Pending, Running, Idle, Done, Failed, Status(42)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}
