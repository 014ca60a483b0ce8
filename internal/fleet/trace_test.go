package fleet

import (
	"testing"

	"repro/internal/obs/event"
)

// TestTraceCausality records the forced-outage failover end to end and
// checks the causal structure the flight recorder promises: one root
// span per job with the two region legs nested under it, the
// migration's Drain → CheckpointExport → Migrate → CheckpointImport
// chain in emission order within the migration slot, and the breaker
// transition carrying the six-element health-score vector.
func TestTraceCausality(t *testing.T) {
	rec := event.NewRecorder()
	ctl, _, _ := outageFleet(t, Config{Trace: rec}, perMemberRegistries)
	if err := ctl.Skip(50); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.RunPersistent(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Completed || rep.Migrations != 1 {
		t.Fatalf("scenario drifted: completed=%v migrations=%d", rep.Outcome.Completed, rep.Migrations)
	}

	// Exactly one root span — the job — and every other span a
	// descendant of it.
	spans := rec.Spans()
	var root event.Span
	roots := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots++
			root = sp
		}
	}
	if roots != 1 {
		t.Fatalf("root spans = %d, want exactly 1 (migrated job must keep one root)", roots)
	}
	if root.Name != "job:"+fleetSpec.ID || root.Job != fleetSpec.ID {
		t.Fatalf("root span = %+v, want the job span", root)
	}
	legs := 0
	for _, sp := range spans {
		if sp.ID == root.ID {
			continue
		}
		if sp.Parent != root.ID {
			t.Fatalf("span %+v not parented to the job root", sp)
		}
		legs++
	}
	if legs != 2 {
		t.Fatalf("leg spans = %d, want 2 (home leg + away leg)", legs)
	}

	// Every attributed event resolves to a recorded span. Span 0 marks
	// events outside any job — the price stream before submission.
	evs := rec.Events()
	for _, ev := range evs {
		if ev.Span == 0 {
			continue
		}
		if _, ok := rec.SpanByID(ev.Span); !ok {
			t.Fatalf("event %+v references an unknown span", ev)
		}
	}

	// The migration chain, in emission order and within one slot: the
	// drain and checkpoint export happen when the breaker trips, the
	// migrate and import when the sibling picks the job up.
	order := []event.Kind{event.Drain, event.CheckpointExport, event.Migrate, event.CheckpointImport}
	idx := make(map[event.Kind]int, len(order))
	for _, k := range order {
		idx[k] = -1
	}
	for i, ev := range evs {
		if j, tracked := idx[ev.Kind]; tracked {
			if j != -1 {
				t.Fatalf("second %v event at index %d (one migration should emit one)", ev.Kind, i)
			}
			idx[ev.Kind] = i
		}
	}
	for i := 1; i < len(order); i++ {
		prev, cur := idx[order[i-1]], idx[order[i]]
		if prev == -1 || cur == -1 {
			t.Fatalf("migration chain incomplete: %v at %d, %v at %d", order[i-1], prev, order[i], cur)
		}
		if prev >= cur {
			t.Fatalf("%v (index %d) not before %v (index %d)", order[i-1], prev, order[i], cur)
		}
	}
	slot := evs[idx[event.Drain]].Slot
	for _, k := range order {
		if got := evs[idx[k]].Slot; got != slot {
			t.Fatalf("%v at slot %d, want the migration slot %d", k, got, slot)
		}
	}

	// The trip that caused it: an Open transition before the drain,
	// carrying the health-score vector [accAPI, accStale, accRejected,
	// blockedStreak, outbidStreak, score].
	trip := -1
	for i, ev := range evs {
		if ev.Kind == event.BreakerTransition && ev.Value == float64(Open) {
			trip = i
			break
		}
	}
	if trip == -1 || trip >= idx[event.Drain] {
		t.Fatalf("no Open breaker transition before the drain (trip=%d drain=%d)", trip, idx[event.Drain])
	}
	tripEv := evs[trip]
	if len(tripEv.Vec) != 6 {
		t.Fatalf("breaker transition Vec = %v, want the 6-element health-score vector", tripEv.Vec)
	}
	if tripEv.Region != "home" || tripEv.Cause == "" {
		t.Fatalf("breaker transition = %+v, want home region with a cause", tripEv)
	}
	if score := tripEv.Vec[5]; score < 0 || score > 1 {
		t.Fatalf("health score %v out of [0,1]", score)
	}
}
