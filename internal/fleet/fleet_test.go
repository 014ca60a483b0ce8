package fleet

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// flatTrace builds an r3.xlarge trace: price everywhere, except
// spikePrice on slots [spikeAt, spikeAt+spikeLen).
func flatTrace(t *testing.T, slots int, price float64, spikeAt, spikeLen int, spikePrice float64) *trace.Trace {
	t.Helper()
	prices := make([]float64, slots)
	for i := range prices {
		prices[i] = price
		if i >= spikeAt && i < spikeAt+spikeLen {
			prices[i] = spikePrice
		}
	}
	tr, err := trace.New(instances.R3XLarge, timeslot.NewGrid(timeslot.DefaultSlot), prices)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// bareMember wraps a trace in a region + client with no registry.
func bareMember(t *testing.T, id string, tr *trace.Trace) Member {
	t.Helper()
	r, err := cloud.NewRegion(tr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(r)
	if err != nil {
		t.Fatal(err)
	}
	return Member{ID: id, Region: r, Client: c}
}

// newMember wraps a trace in a region + instrumented client.
func newMember(t *testing.T, id string, tr *trace.Trace) Member {
	t.Helper()
	m := bareMember(t, id, tr)
	m.Client.SetMetrics(obs.New())
	return m
}

var fleetSpec = job.Spec{ID: "fleet-job", Type: instances.R3XLarge, Exec: 1, Recovery: timeslot.Seconds(30)}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	a := newMember(t, "a", flatTrace(t, 10, 0.03, 0, 0, 0))
	if _, err := NewController(Config{}, Member{ID: "x", Region: a.Region}); err == nil {
		t.Error("nil client accepted")
	}
	b := newMember(t, "a", flatTrace(t, 10, 0.03, 0, 0, 0))
	if _, err := NewController(Config{}, a, b); err == nil {
		t.Error("duplicate IDs accepted")
	}
	c := newMember(t, "c", flatTrace(t, 10, 0.03, 0, 0, 0))
	cross := Member{ID: "cross", Region: a.Region, Client: c.Client}
	if _, err := NewController(Config{}, cross); err == nil {
		t.Error("client bound to a different region accepted")
	}
}

// TestSingleRegionEquivalence: with a fault-free substrate, a 1-member
// fleet run is byte-identical — report and metrics snapshot — to the
// member's client run directly. The fleet's own telemetry lives in a
// separate registry precisely so this holds.
func TestSingleRegionEquivalence(t *testing.T) {
	gen := func() (*cloud.Region, *client.Client) {
		tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 63, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		r, err := cloud.NewRegion(tr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.New(r)
		if err != nil {
			t.Fatal(err)
		}
		c.SetMetrics(obs.New())
		return r, c
	}
	const skip = 61*288 + 100

	_, base := gen()
	if err := base.Skip(skip); err != nil {
		t.Fatal(err)
	}
	baseRep, err := base.RunPersistent(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}

	r2, c2 := gen()
	ctl, err := NewController(Config{Metrics: obs.New()}, Member{ID: "solo", Region: r2, Client: c2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Skip(skip); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.RunPersistent(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Legs) != 1 || rep.Migrations != 0 || rep.Escalated {
		t.Fatalf("1-region clean run not a single leg: legs=%d migrations=%d escalated=%v",
			len(rep.Legs), rep.Migrations, rep.Escalated)
	}
	if !reflect.DeepEqual(baseRep, rep.Legs[0].Report) {
		t.Errorf("fleet leg report differs from direct client report:\nfleet:  %+v\nclient: %+v",
			rep.Legs[0].Report, baseRep)
	}
	got := c2.Metrics.Snapshot().Render()
	want := base.Metrics.Snapshot().Render()
	if got != want {
		t.Errorf("member metrics snapshot differs from direct client run:\n--- fleet\n%s\n--- client\n%s", got, want)
	}
	if rep.FleetCost != baseRep.Outcome.Cost {
		t.Errorf("FleetCost %v != client cost %v", rep.FleetCost, baseRep.Outcome.Cost)
	}
}

// outageFleet builds the forced-outage scenario: the job launches at
// home on cheap prices, a price spike at slot 60 out-bids it, and from
// that same slot a permanent region-wide outage (rate 1, pinned by
// RegionOutageAfter) blocks every relaunch — while a clean sibling
// stays up. install gives the member clients their registries.
func outageFleet(t *testing.T, cfg Config, install func(home, away *client.Client)) (*Controller, Member, Member) {
	t.Helper()
	home := bareMember(t, "home", flatTrace(t, 400, 0.03, 60, 3, 0.50))
	away := bareMember(t, "away", flatTrace(t, 400, 0.03, 0, 0, 0))
	install(home.Client, away.Client)
	inj, err := chaos.New(chaos.Config{Seed: 11, RegionOutageRate: 1, RegionOutageAfter: 60, RegionOutageSlots: 400})
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(home.Region, nil)
	ctl, err := NewController(cfg, home, away)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, home, away
}

// perMemberRegistries gives each member client a registry of its own.
func perMemberRegistries(home, away *client.Client) {
	home.SetMetrics(obs.New())
	away.SetMetrics(obs.New())
}

// TestRegistryLayoutDoesNotSteerBreakers runs the forced-outage fleet
// under three member-registry layouts: one per member, none, and one
// shared by both members. The breakers read each member's own region
// and client counts, so every layout gives the same schedule, bill and
// escalation, and the same health score and breaker state for each
// member at every slot. A breaker that read the shared registry would
// see the home region's blocked launches as the sibling's and trip it.
func TestRegistryLayoutDoesNotSteerBreakers(t *testing.T) {
	type slotState struct {
		health  [2]float64
		breaker [2]BreakerState
	}
	type result struct {
		schedule  string
		cost      float64
		escalated bool
		slots     []slotState
	}
	layouts := []struct {
		name    string
		install func(home, away *client.Client)
	}{
		{"per-member", perMemberRegistries},
		{"none", func(home, away *client.Client) {}},
		{"shared", func(home, away *client.Client) {
			reg := obs.New()
			home.SetMetrics(reg)
			away.SetMetrics(reg)
		}},
	}

	var want result
	for i, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			var got result
			var ctl *Controller
			ctl, home, away := outageFleet(t, Config{OnSlot: func(int) {
				got.slots = append(got.slots, slotState{
					health:  [2]float64{ctl.Health("home"), ctl.Health("away")},
					breaker: [2]BreakerState{ctl.Breaker("home"), ctl.Breaker("away")},
				})
			}}, l.install)
			if l.name == "none" && (home.Client.Metrics != nil || away.Client.Metrics != nil) {
				t.Fatal("NewController installed a registry on a member without one")
			}
			if err := ctl.Skip(50); err != nil {
				t.Fatal(err)
			}
			rep, err := ctl.RunPersistent(fleetSpec)
			if err != nil {
				t.Fatal(err)
			}
			got.schedule, got.cost, got.escalated = rep.Schedule(), rep.FleetCost, rep.Escalated
			if i == 0 {
				want = got
				if want.escalated || !strings.Contains(want.schedule, "capacity outage") {
					t.Fatalf("scenario drifted: escalated=%v schedule:\n%s", want.escalated, want.schedule)
				}
				return
			}
			if got.schedule != want.schedule {
				t.Errorf("schedule differs from one registry per member:\n--- %s\n%s--- per-member\n%s",
					l.name, got.schedule, want.schedule)
			}
			if got.cost != want.cost || got.escalated != want.escalated {
				t.Errorf("FleetCost %v escalated %v, want %v, %v", got.cost, got.escalated, want.cost, want.escalated)
			}
			if len(got.slots) != len(want.slots) {
				t.Fatalf("%d slots observed, want %d", len(got.slots), len(want.slots))
			}
			for s := range got.slots {
				if got.slots[s] != want.slots[s] {
					t.Fatalf("slot %d: health/breaker %+v, want %+v", s, got.slots[s], want.slots[s])
				}
			}
		})
	}
}

// TestForcedOutageFailsOver: the job launches at home, is out-bid by a
// price spike, and cannot relaunch (every launch blocked). The blocked
// streak hard-trips the breaker; the job drains, migrates with its
// checkpoint, and completes in the sibling region on spot capacity —
// strictly cheaper than the all-on-demand escape hatch.
func TestForcedOutageFailsOver(t *testing.T) {
	met := obs.New()
	ctl, home, away := outageFleet(t, Config{Metrics: met}, perMemberRegistries)
	if err := ctl.Skip(50); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.RunPersistent(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Completed {
		t.Fatal("job lost: not completed")
	}
	if rep.Escalated {
		t.Error("escalated to on-demand despite a healthy sibling")
	}
	if rep.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", rep.Migrations)
	}
	if got := ctl.Breaker("home"); got != Open {
		t.Errorf("home breaker = %v, want open", got)
	}
	if len(rep.Legs) != 2 || rep.Legs[0].Member != "home" || rep.Legs[1].Member != "away" {
		t.Fatalf("legs = %+v", rep.Legs)
	}
	if rep.Legs[0].Aborted != "breaker-open" {
		t.Errorf("leg 0 aborted = %q", rep.Legs[0].Aborted)
	}
	od := instances.MustLookup(instances.R3XLarge).OnDemand * float64(fleetSpec.Exec)
	if !(rep.FleetCost < od) {
		t.Errorf("fleet cost %v not below all-on-demand %v", rep.FleetCost, od)
	}
	if met.CounterValue("fleet.trips") != 1 || met.CounterValue("fleet.migrations") != 1 {
		t.Errorf("fleet counters: trips=%d migrations=%d",
			met.CounterValue("fleet.trips"), met.CounterValue("fleet.migrations"))
	}
	sched := rep.Schedule()
	for _, want := range []string{"trip", "capacity outage", "migrate", "assign"} {
		if !strings.Contains(sched, want) {
			t.Errorf("schedule missing %q:\n%s", want, sched)
		}
	}
	// The first leg made durable progress, so the second leg pays the
	// recovery surcharge: total run time exceeds the plain exec time.
	if rep.Outcome.RunTime <= fleetSpec.Exec {
		t.Errorf("run time %v should exceed exec %v (migration pays recovery)",
			float64(rep.Outcome.RunTime), float64(fleetSpec.Exec))
	}
	// The away leg resumed from the migrated progress — its run is the
	// remaining work plus surcharges, far short of the full exec a
	// from-scratch restart would need.
	if away := rep.Legs[1].Report.Outcome.RunTime; away >= fleetSpec.Exec {
		t.Errorf("away leg ran %vh, a from-scratch restart: migrated progress was lost", float64(away))
	}
	_, _ = home, away
}

// TestFailoverScheduleDeterministic: same seeds, same config → byte-
// identical failover schedule and fleet metrics snapshot.
func TestFailoverScheduleDeterministic(t *testing.T) {
	run := func() (string, string) {
		met := obs.New()
		ctl, _, _ := outageFleet(t, Config{Metrics: met}, perMemberRegistries)
		if err := ctl.Skip(50); err != nil {
			t.Fatal(err)
		}
		rep, err := ctl.RunPersistent(fleetSpec)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Schedule(), met.Snapshot().Render()
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 == "" {
		t.Fatal("empty schedule")
	}
	if s1 != s2 {
		t.Errorf("schedules differ:\n--- run 1\n%s\n--- run 2\n%s", s1, s2)
	}
	if m1 != m2 {
		t.Errorf("fleet metric snapshots differ:\n--- run 1\n%s\n--- run 2\n%s", m1, m2)
	}
}

// TestEscalatesWhenEveryRegionIsDown: with every member's API surface
// failing, every breaker opens and the job finishes on-demand — the
// §3.2 completion guarantee, fleet-wide.
func TestEscalatesWhenEveryRegionIsDown(t *testing.T) {
	met := obs.New()
	a := newMember(t, "a", flatTrace(t, 400, 0.03, 0, 0, 0))
	b := newMember(t, "b", flatTrace(t, 400, 0.03, 0, 0, 0))
	for i, m := range []Member{a, b} {
		inj, err := chaos.New(chaos.Config{Seed: int64(21 + i), RegionOutageRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		inj.Arm(m.Region, nil)
	}
	ctl, err := NewController(Config{Metrics: met}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Skip(50); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.RunPersistent(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Completed {
		t.Fatal("job lost: not completed")
	}
	if !rep.Escalated {
		t.Error("fleet did not report escalation")
	}
	if ctl.Breaker("a") != Open || ctl.Breaker("b") != Open {
		t.Errorf("breakers a=%v b=%v, want both open", ctl.Breaker("a"), ctl.Breaker("b"))
	}
	last := rep.Legs[len(rep.Legs)-1]
	if last.Strategy != "on-demand" {
		t.Errorf("final leg strategy %q, want on-demand", last.Strategy)
	}
	if met.CounterValue("fleet.escalations") != 1 {
		t.Errorf("fleet.escalations = %d", met.CounterValue("fleet.escalations"))
	}
}

// TestBreakerReopensHalfOpen: the quarantine elapses and an open
// breaker moves to half-open, making the region a probe candidate.
func TestBreakerReopensHalfOpen(t *testing.T) {
	ctl, _, _ := outageFleet(t, Config{}, perMemberRegistries)
	if err := ctl.Skip(50); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RunPersistent(fleetSpec); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Breaker("home"); got != Open {
		t.Fatalf("home breaker = %v, want open", got)
	}
	if err := ctl.Skip(openSlots + 1); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Breaker("home"); got != HalfOpen {
		t.Errorf("home breaker after quarantine = %v, want half-open", got)
	}
}

// TestHealthScoreBounds: the score saturates in [0,1] and the breaker
// stringer covers every state.
func TestHealthScoreBounds(t *testing.T) {
	m := &member{accAPI: 1e9, accStale: 1e9, accRejected: 1e9, blockedStreak: 1 << 20, outbidStreak: 1 << 20}
	if s := healthScore(m); s < 0.999 || s > 1.001 {
		t.Errorf("saturated score = %v, want 1", s)
	}
	if s := healthScore(&member{}); s != 0 {
		t.Errorf("idle score = %v, want 0", s)
	}
	for _, st := range []BreakerState{Closed, Open, HalfOpen, BreakerState(9)} {
		if st.String() == "" {
			t.Error("empty breaker stringer")
		}
	}
}

// TestLockstepEndOfTrace: the fleet ends every clock on the same slot
// when the shortest trace runs out.
func TestLockstepEndOfTrace(t *testing.T) {
	a := newMember(t, "a", flatTrace(t, 50, 0.03, 0, 0, 0))
	b := newMember(t, "b", flatTrace(t, 80, 0.03, 0, 0, 0))
	ctl, err := NewController(Config{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	err = ctl.Skip(100)
	if !errors.Is(err, cloud.ErrEndOfTrace) {
		t.Fatalf("skip past trace end: err = %v, want ErrEndOfTrace", err)
	}
	if a.Region.Now() != b.Region.Now() {
		t.Errorf("clocks desynced: a=%d b=%d", a.Region.Now(), b.Region.Now())
	}
	if a.Region.Now() != 49 {
		t.Errorf("fleet stopped at slot %d, want 49 (shortest trace)", a.Region.Now())
	}
}
