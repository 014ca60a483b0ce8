package client

import (
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/retry"
)

// TestCountsMatchRegistry: after a chaos day, the region's and the
// client's own counts equal the registry counters fed at the same
// sites, and the same day with no registry installed grows the same
// counts. Each slot the client fetches the market (API faults, stale
// serves, rejected quotes) while a persistent request bidding the
// day's median price launches, is out-bid and is blocked by capacity
// outages.
func TestCountsMatchRegistry(t *testing.T) {
	const slots = 288
	typ := instances.R3XLarge
	run := func(reg *obs.Registry) (cloud.Counts, Counts) {
		c := newClient(t, 29)
		c.SetMetrics(reg)
		inj, err := chaos.New(chaos.Config{Seed: 7, APIFaultRate: 0.2, APIBurst: 4,
			CorruptRate: 0.01, OutageRate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Arm(c.Region, c.Volume); err != nil {
			t.Fatal(err)
		}
		prices := make([]float64, slots)
		for i := range prices {
			if prices[i], err = c.Region.TracePrice(typ, c.Region.Now()+1+i); err != nil {
				t.Fatal(err)
			}
		}
		sort.Float64s(prices)
		submitted := false
		for i := 0; i < slots; i++ {
			if _, err := c.Market(typ); err != nil && !retry.IsTransient(err) {
				t.Fatal(err)
			}
			if !submitted {
				_, err := c.Region.RequestSpotInstances(typ, prices[slots/2], cloud.Persistent, 1)
				if err != nil && !retry.IsTransient(err) {
					t.Fatal(err)
				}
				submitted = err == nil
			}
			if err := c.Region.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		return c.Region.Counts(), c.Counts()
	}

	reg := obs.New()
	rc, cc := run(reg)
	for _, f := range []struct {
		name  string
		count int64
	}{
		{"cloud.api_faults", rc.APIFaults},
		{"cloud.bids.blocked", rc.Blocked},
		{"cloud.bids.outbid", rc.Outbid},
		{"cloud.bids.accepted", rc.Accepted},
		{"client.quotes.rejected", cc.RejectedQuotes},
		{"client.ecdf.stale_serves", cc.StaleServes},
	} {
		if want := reg.CounterValue(f.name); f.count != want {
			t.Errorf("%s: count %d, registry %d", f.name, f.count, want)
		}
		if f.count == 0 {
			t.Errorf("%s: the chaos day never fed it", f.name)
		}
	}

	bareRC, bareCC := run(nil)
	if bareRC != rc || bareCC != cc {
		t.Errorf("counts without a registry %+v %+v, with one %+v %+v", bareRC, bareCC, rc, cc)
	}
}
