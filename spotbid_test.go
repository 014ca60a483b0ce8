package spotbid_test

import (
	"bytes"
	"math"
	"testing"

	spotbid "repro"
)

// TestFacadeEndToEnd drives the whole public surface the way the
// README's quickstart does: generate a history, estimate the market,
// compute every bid kind, then run a job and a MapReduce plan on the
// simulated cloud.
func TestFacadeEndToEnd(t *testing.T) {
	history, err := spotbid.GenerateTrace(spotbid.R3XLarge, spotbid.GenOptions{Days: 63, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if history.Len() != 63*288 {
		t.Fatalf("history length %d", history.Len())
	}

	// CSV round trip through the facade.
	var buf bytes.Buffer
	if err := history.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := spotbid.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != history.Len() {
		t.Fatal("CSV round trip lost data")
	}

	spec, err := spotbid.LookupInstance(spotbid.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	ecdf, err := history.ECDF(0)
	if err != nil {
		t.Fatal(err)
	}
	m := spotbid.Market{Price: ecdf, OnDemand: spec.OnDemand}

	oneTime, err := m.OneTimeBid(spotbid.Job{Exec: 1})
	if err != nil {
		t.Fatal(err)
	}
	persistent, err := m.PersistentBid(spotbid.Job{Exec: 1, Recovery: spotbid.Seconds(30)})
	if err != nil {
		t.Fatal(err)
	}
	if persistent.Price > oneTime.Price {
		t.Errorf("persistent bid %v above one-time %v", persistent.Price, oneTime.Price)
	}
	if oneTime.Savings() < 0.8 || persistent.Savings() < 0.8 {
		t.Errorf("savings %v / %v below the paper's headline", oneTime.Savings(), persistent.Savings())
	}

	deadline, err := m.DeadlineBid(spotbid.DeadlineJob{
		Job:      spotbid.Job{Exec: 1, Recovery: spotbid.Seconds(30)},
		Deadline: 2,
		MissProb: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if deadline.Price < persistent.Price-1e-12 {
		t.Error("deadline bid below the unconstrained optimum")
	}

	plan, err := spotbid.PlanMapReduce(m, m, spotbid.MapReduceJob{
		Exec: 2, Recovery: spotbid.Seconds(30), Overhead: spotbid.Seconds(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workers < 2 || plan.Savings() < 0.8 {
		t.Errorf("plan: M=%d savings=%v", plan.Workers, plan.Savings())
	}

	// Run a job end to end via the client.
	region, err := spotbid.NewRegion(history)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := spotbid.NewClient(region)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Skip(61 * 288); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.RunPersistent(spotbid.JobSpec{
		ID: "facade", Type: spotbid.R3XLarge, Exec: 1, Recovery: spotbid.Seconds(30),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Completed {
		t.Fatal("job did not complete")
	}
	if rep.Outcome.Cost > 0.2*spec.OnDemand {
		t.Errorf("measured cost %v not at deep discount", rep.Outcome.Cost)
	}
}

// TestFacadeWordCount runs the MapReduce engine through the facade
// and verifies the functional output.
func TestFacadeWordCount(t *testing.T) {
	corpus, err := spotbid.GenerateCorpus(20, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	master, err := spotbid.GenerateTrace(spotbid.R3XLarge, spotbid.GenOptions{Days: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slave, err := spotbid.GenerateTrace(spotbid.C34XL, spotbid.GenOptions{Days: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	region, err := spotbid.NewRegion(master, slave)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spotbid.RunMapReduce(region, corpus, spotbid.MRConfig{
		Master:       spotbid.MRNodeSpec{Type: spotbid.R3XLarge, Bid: 0.3, Kind: spotbid.OneTime},
		Slave:        spotbid.MRNodeSpec{Type: spotbid.C34XL, Bid: 0.4, Kind: spotbid.Persistent},
		Workers:      4,
		Recovery:     spotbid.Seconds(30),
		WordsPerHour: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("word count did not complete")
	}
	oracle := spotbid.CountWords(corpus.Docs)
	for _, w := range spotbid.TopWords(res.Counts, 5) {
		if res.Counts[w] != oracle[w] {
			t.Errorf("count for %q: %d vs oracle %d", w, res.Counts[w], oracle[w])
		}
	}
}

// TestFacadeProviderModel checks the provider-side exports.
func TestFacadeProviderModel(t *testing.T) {
	cal, err := spotbid.CalibrationFor(spotbid.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	p := cal.Provider
	if got := p.OptimalPrice(50); got <= p.PMin || got >= p.POnDemand/2 {
		t.Errorf("optimal price %v out of the theoretical band", got)
	}
	arrival, err := spotbid.NewPareto(5, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := spotbid.NewEquilibriumPriceDist(p, arrival)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(eq.Mean()) {
		t.Error("equilibrium mean NaN")
	}
}

// TestFacadeLanes drives the struct-of-arrays lane engine through the
// facade: a small fleet, run to the end of the trace.
func TestFacadeLanes(t *testing.T) {
	cfg := spotbid.LanesConfig{
		Types:      []spotbid.InstanceType{spotbid.R3XLarge},
		Lanes:      16,
		Days:       3,
		Seed:       5,
		Exec:       10,
		Recovery:   spotbid.Seconds(30),
		Window:     24,
		QuoteEvery: 48,
	}
	e, err := spotbid.NewLanes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Lanes != cfg.Lanes {
		t.Fatalf("report covers %d lanes, want %d", rep.Total.Lanes, cfg.Lanes)
	}
}
