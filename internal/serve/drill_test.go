package serve_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/serve"
)

// drillSchedule builds an injector that delivers the canonical drill
// timeline, chaos.DrillSchedule.
func drillSchedule(t *testing.T) *chaos.ServeInjector {
	t.Helper()
	inj, err := chaos.NewServeSchedule(chaos.DrillSchedule)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestDrillDegradeShedRecover is the e2e serving drill: a live
// simulated market under the canonical fault schedule must walk the
// staleness ladder down and back (fresh → stale with explicit age →
// refuse → fresh), shed under burst and skew without ever emitting
// past a deadline, refuse Eq. 14-infeasible jobs once the price spike
// poisons the window, and satisfy every serving invariant.
func TestDrillDegradeShedRecover(t *testing.T) {
	res, err := serve.Drill(serve.DrillConfig{Faults: drillSchedule(t)})
	if err != nil {
		t.Fatal(err)
	}

	// Ladder walk: fresh before the stall, stale and refuse during
	// it, fresh again after the build pipeline recovers.
	sawFresh, sawStale, sawRefuse, recovered := false, false, false, false
	for slot, tier := range res.TierBySlot {
		switch {
		case tier == serve.TierFresh && !sawStale:
			sawFresh = true
		case tier == serve.TierStale:
			if !sawFresh {
				t.Fatalf("slot %d: stale before ever being fresh", slot)
			}
			sawStale = true
		case tier == serve.TierRefuse && sawStale:
			sawRefuse = true
		case tier == serve.TierFresh && sawRefuse:
			recovered = true
		}
	}
	if !sawFresh || !sawStale || !sawRefuse || !recovered {
		t.Fatalf("ladder walk incomplete: fresh=%v stale=%v refuse=%v recovered=%v",
			sawFresh, sawStale, sawRefuse, recovered)
	}
	if last := res.TierBySlot[len(res.TierBySlot)-1]; last != serve.TierFresh {
		t.Fatalf("drill must end fresh, ended %v", last)
	}

	// Every distinct degradation and shed path must actually fire.
	for _, want := range []serve.Outcome{
		serve.OutcomeServedFresh, serve.OutcomeServedStale,
		serve.OutcomeRefusedStale, serve.OutcomeRefusedCold,
		serve.OutcomeRefusedInfeasible,
		serve.OutcomeShedCapacity, serve.OutcomeShedDeadline,
	} {
		if res.Counts[want] == 0 {
			t.Errorf("outcome %s never occurred; ledger %v", want, res.Counts)
		}
	}

	// Stale responses must carry their explicit age.
	staleSeen := false
	for _, r := range res.Records {
		if r.Outcome == serve.OutcomeServedStale {
			staleSeen = true
			if int(r.AgeSlots) <= res.FreshForSlots {
				t.Fatalf("seq %d: served stale with fresh-range age %d", r.Seq, r.AgeSlots)
			}
		}
	}
	if !staleSeen {
		t.Fatal("no stale-served record retained")
	}

	// The four serving invariants over the full audit stream.
	st := &invariant.ServeRunState{
		FreshForSlots: res.FreshForSlots,
		StaleForSlots: res.StaleForSlots,
		Total:         res.Total,
		Counts:        res.Counts,
		Published:     res.Published,
	}
	if vs := invariant.VerifyServe(res.Records, st); len(vs) != 0 {
		for _, v := range vs {
			t.Error(v)
		}
	}
}

// TestDrillReplayByteIdentical is the fifth serving invariant: the
// same seed and schedule reproduce a byte-identical audit export.
func TestDrillReplayByteIdentical(t *testing.T) {
	a, err := serve.Drill(serve.DrillConfig{Faults: drillSchedule(t)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.Drill(serve.DrillConfig{Faults: drillSchedule(t)})
	if err != nil {
		t.Fatal(err)
	}
	if vs := invariant.CompareServeReplay(a.AuditJSONL, b.AuditJSONL); len(vs) != 0 {
		for _, v := range vs {
			t.Error(v)
		}
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverged: %d vs %d", a.Fingerprint, b.Fingerprint)
	}
}

// TestDrillFaultFree: without faults the ladder never leaves fresh
// after warm-up and nothing is refused for staleness or feasibility.
func TestDrillFaultFree(t *testing.T) {
	res, err := serve.Drill(serve.DrillConfig{BurstSlot: -1, Slots: 200})
	if err != nil {
		t.Fatal(err)
	}
	for slot, tier := range res.TierBySlot {
		if slot >= 60 && tier != serve.TierFresh {
			t.Fatalf("fault-free drill left fresh at slot %d: %v", slot, tier)
		}
	}
	for _, o := range []serve.Outcome{
		serve.OutcomeRefusedStale, serve.OutcomeRefusedInfeasible,
		serve.OutcomeShedCapacity, serve.OutcomeShedDeadline,
	} {
		if res.Counts[o] != 0 {
			t.Errorf("fault-free drill produced %s ×%d", o, res.Counts[o])
		}
	}
	if res.Counts[serve.OutcomeServedFresh] == 0 {
		t.Fatal("fault-free drill served nothing")
	}
}
