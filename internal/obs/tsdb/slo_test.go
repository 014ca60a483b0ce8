package tsdb

import (
	"strings"
	"testing"

	"repro/internal/obs/event"
)

// synthSLO is the spec the tests drive: 99% of requests good, one
// burn rule over a 40-slot long / 8-slot short window pair, firing at
// 10x burn (error rate ≥ 10%).
func synthSLO() SLO {
	return SLO{
		Name:      "good-ratio",
		Good:      []Selector{{Name: "req.good"}},
		Total:     []Selector{{Name: "req.good"}, {Name: "req.bad"}},
		Objective: 0.99,
		Windows:   []BurnRule{{LongSlots: 40, ShortSlots: 8, MaxBurn: 10}},
	}
}

// feed appends cumulative good/bad counters: per slot, `good` good
// requests and `bad` bad ones, from slot lo to hi inclusive,
// evaluating the engine each slot. Returns all transitions.
func feed(t *testing.T, db *DB, eng *Engine, lo, hi int, goodTot, badTot *float64, good, bad float64) []Alert {
	t.Helper()
	var out []Alert
	for slot := lo; slot <= hi; slot++ {
		*goodTot += good
		*badTot += bad
		db.Append("req.good", nil, slot, *goodTot)
		db.Append("req.bad", nil, slot, *badTot)
		out = append(out, eng.Eval(slot)...)
	}
	return out
}

func TestSLOFiresAndResolves(t *testing.T) {
	db := New(Config{})
	rec := event.NewRecorder()
	eng, err := NewEngine(db, rec, synthSLO())
	if err != nil {
		t.Fatal(err)
	}
	var g, b float64
	// Healthy phase: 100% good — nothing fires.
	if trans := feed(t, db, eng, 0, 99, &g, &b, 10, 0); len(trans) != 0 {
		t.Fatalf("healthy phase produced transitions: %v", trans)
	}
	// Outage: 50% errors — burn 50x, must fire once the short AND
	// long windows both cross 10x.
	trans := feed(t, db, eng, 100, 159, &g, &b, 5, 5)
	if len(trans) != 1 || !trans[0].Firing || trans[0].SLO != "good-ratio" {
		t.Fatalf("outage transitions = %v, want one firing", trans)
	}
	fired := trans[0]
	if fired.Slot < 100 || fired.Slot > 140 {
		t.Fatalf("fired at slot %d, want within the long window of the outage start", fired.Slot)
	}
	if fired.Burn < 10 {
		t.Fatalf("firing burn = %v, want ≥ 10", fired.Burn)
	}
	if !eng.Firing("good-ratio") {
		t.Fatal("Firing() false while alert active")
	}
	// Recovery: 100% good — the short window un-trips quickly, the
	// alert resolves once the long window drains too.
	trans = feed(t, db, eng, 160, 259, &g, &b, 10, 0)
	if len(trans) != 1 || trans[0].Firing {
		t.Fatalf("recovery transitions = %v, want one resolve", trans)
	}
	if trans[0].Slot <= fired.Slot {
		t.Fatalf("resolved at %d, not after firing slot %d", trans[0].Slot, fired.Slot)
	}
	if eng.Firing("good-ratio") {
		t.Fatal("Firing() true after resolve")
	}

	// The transition log holds exactly the two transitions.
	alerts := eng.Alerts()
	if len(alerts) != 2 || !alerts[0].Firing || alerts[1].Firing {
		t.Fatalf("Alerts() = %v", alerts)
	}
	// A resolve Alert carries the SLO identity, not a zero value.
	if alerts[1].SLO != "good-ratio" || alerts[1].Window.LongSlots != 40 {
		t.Fatalf("resolve alert lost identity: %+v", alerts[1])
	}
	if !strings.Contains(alerts[0].String(), "FIRING") || !strings.Contains(alerts[1].String(), "RESOLVED") {
		t.Fatalf("Alert.String() = %q, %q", alerts[0], alerts[1])
	}

	// The flight recorder saw both transitions as Alert events.
	var evs []event.Event
	for _, e := range rec.Events() {
		if e.Kind == event.Alert {
			evs = append(evs, e)
		}
	}
	if len(evs) != 2 || evs[0].Cause != "firing" || evs[1].Cause != "resolved" || evs[0].Subject != "good-ratio" {
		t.Fatalf("recorder Alert events = %v", evs)
	}

	// The DB carries the firing step series and burn-rate series.
	firing := db.Points("slo.firing", L("slo", "good-ratio"))
	if len(firing) == 0 {
		t.Fatal("no slo.firing series")
	}
	sawOn := false
	for _, p := range firing {
		if p.Value == 1 {
			sawOn = true
		}
	}
	if !sawOn {
		t.Fatal("slo.firing never reached 1")
	}
	if last, _ := Last(firing); last.Value != 0 {
		t.Fatalf("slo.firing ends at %v, want 0 after resolve", last.Value)
	}
	if pts := db.Points("slo.burn_rate", L("slo", "good-ratio", "window", "40/8")); len(pts) != 260 {
		t.Fatalf("burn-rate series has %d points, want 260 (one per eval)", len(pts))
	}
}

func TestSLONoTrafficBurnsNothing(t *testing.T) {
	db := New(Config{})
	eng, err := NewEngine(db, nil, synthSLO()) // nil recorder: emits are dropped
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 50; slot++ {
		if trans := eng.Eval(slot); len(trans) != 0 {
			t.Fatalf("empty DB produced transitions at slot %d: %v", slot, trans)
		}
	}
}

func TestSLOAnyWindowFires(t *testing.T) {
	// Two rules; only the fast one can trip in a short outage.
	s := synthSLO()
	s.Windows = []BurnRule{
		{LongSlots: 200, ShortSlots: 40, MaxBurn: 40}, // slow: never trips here
		{LongSlots: 16, ShortSlots: 4, MaxBurn: 5},    // fast
	}
	db := New(Config{})
	eng, err := NewEngine(db, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	var g, b float64
	feed(t, db, eng, 0, 59, &g, &b, 10, 0)
	trans := feed(t, db, eng, 60, 79, &g, &b, 5, 5)
	if len(trans) != 1 || !trans[0].Firing {
		t.Fatalf("transitions = %v, want one firing via the fast rule", trans)
	}
	if trans[0].Window.LongSlots != 16 {
		t.Fatalf("fired via window %+v, want the 16/4 rule", trans[0].Window)
	}
}

func TestSLOValidation(t *testing.T) {
	db := New(Config{})
	base := synthSLO()
	bad := []func(*SLO){
		func(s *SLO) { s.Name = "" },
		func(s *SLO) { s.Objective = 1 },
		func(s *SLO) { s.Objective = -0.1 },
		func(s *SLO) { s.Good = nil },
		func(s *SLO) { s.Total = nil },
		func(s *SLO) { s.Windows = nil },
		func(s *SLO) { s.Windows = []BurnRule{{LongSlots: 4, ShortSlots: 8, MaxBurn: 1}} },
		func(s *SLO) { s.Windows = []BurnRule{{LongSlots: 8, ShortSlots: 4, MaxBurn: 0}} },
		func(s *SLO) { s.Windows = []BurnRule{{LongSlots: 0, ShortSlots: 0, MaxBurn: 1}} },
	}
	for i, mutate := range bad {
		s := base
		mutate(&s)
		if _, err := NewEngine(db, nil, s); err == nil {
			t.Fatalf("case %d: invalid SLO %+v accepted", i, s)
		}
	}
	if _, err := NewEngine(db, nil, base); err != nil {
		t.Fatalf("valid SLO rejected: %v", err)
	}
}
