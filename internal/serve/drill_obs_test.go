package serve_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/serve"
)

// obsDrill runs the canonical fault drill with the observability
// plane attached.
func obsDrill(t *testing.T) (*serve.DrillResult, *tsdb.DB, *event.Recorder) {
	t.Helper()
	db := tsdb.New(tsdb.Config{})
	rec := event.NewRecorder()
	res, err := serve.Drill(serve.DrillConfig{Faults: drillSchedule(t), TSDB: db, Events: rec})
	if err != nil {
		t.Fatal(err)
	}
	return res, db, rec
}

// TestDrillSLOWalk is the acceptance walk: the feed stall must fire
// the fresh-tier burn-rate alert while the ladder is degraded and
// resolve it after the build pipeline recovers; the burst must fire
// the shed-rate alert and resolve it once the burst leaves the short
// window.
func TestDrillSLOWalk(t *testing.T) {
	res, db, rec := obsDrill(t)

	byName := map[string][]tsdb.Alert{}
	for _, a := range res.Alerts {
		byName[a.SLO] = append(byName[a.SLO], a)
	}

	fresh := byName["fresh-tier-ratio"]
	if len(fresh) != 2 || !fresh[0].Firing || fresh[1].Firing {
		t.Fatalf("fresh-tier-ratio alerts = %v, want fire then resolve", fresh)
	}
	// The feed stall runs slots 60–139; staleness begins once the last
	// pre-stall table outlives FreshForSlots=24. The alert must fire
	// inside the degraded stretch and resolve after builds resume at
	// 144–168 — well before the drill ends, and before the price-spike
	// refusals (excluded from the SLO's Total) begin at 260.
	if fresh[0].Slot < 80 || fresh[0].Slot > 160 {
		t.Fatalf("fresh-tier-ratio fired at slot %d, want within the degraded walk", fresh[0].Slot)
	}
	if fresh[1].Slot < 160 || fresh[1].Slot > 260 {
		t.Fatalf("fresh-tier-ratio resolved at slot %d, want shortly after recovery", fresh[1].Slot)
	}

	shed := byName["shed-rate"]
	if len(shed) < 2 || !shed[0].Firing || shed[len(shed)-1].Firing {
		t.Fatalf("shed-rate alerts = %v, want fire(s) ending resolved", shed)
	}
	if first := shed[0].Slot; first < 200 || first > 216 {
		t.Fatalf("shed-rate fired at slot %d, want around the skew/burst incidents", first)
	}

	// The firing step series in the DB tells the same story the alert
	// log does — this is what spotbidtop renders.
	firing := db.Points("slo.firing", tsdb.L("slo", "fresh-tier-ratio"))
	if v, ok := tsdb.At(firing, fresh[0].Slot); !ok || v != 1 {
		t.Fatalf("slo.firing at fire slot = %v,%v, want 1", v, ok)
	}
	if last, _ := tsdb.Last(firing); last.Value != 0 {
		t.Fatalf("slo.firing ends at %v, want 0", last.Value)
	}

	// The ladder tier step series walked fresh → stale → refuse.
	tiers := db.Points("serve.tier", tsdb.L("market", "r3.xlarge"))
	seen := map[float64]bool{}
	for _, p := range tiers {
		seen[p.Value] = true
	}
	for _, tier := range []serve.Tier{serve.TierFresh, serve.TierStale, serve.TierRefuse} {
		if !seen[float64(tier)] {
			t.Fatalf("serve.tier never reached %v; saw %v", tier, seen)
		}
	}

	// Every transition also landed in the flight recorder.
	var alertEvents int
	for _, e := range rec.Events() {
		if e.Kind == event.Alert {
			alertEvents++
		}
	}
	if alertEvents != len(res.Alerts) {
		t.Fatalf("recorder saw %d Alert events, alert log has %d", alertEvents, len(res.Alerts))
	}
}

// TestDrillTSDBDeterminism: two identical drills produce byte-identical
// tsdb dumps and identical alert sequences.
func TestDrillTSDBDeterminism(t *testing.T) {
	a, _, _ := obsDrill(t)
	b, _, _ := obsDrill(t)
	if len(a.TSDBDump) == 0 {
		t.Fatal("no tsdb dump")
	}
	if !bytes.Equal(a.TSDBDump, b.TSDBDump) {
		t.Fatal("two identical drills dumped different tsdb bytes")
	}
	if !reflect.DeepEqual(a.Alerts, b.Alerts) {
		t.Fatalf("alert sequences differ:\n%v\n%v", a.Alerts, b.Alerts)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatal("audit fingerprints differ")
	}
}
