// Failover demonstrates the multi-region fleet controller: a
// persistent one-hour job is supervised across several simulated
// regions, each with its own price trace, and the job's home region is
// hit with a correlated region-wide outage mid-run. The controller's
// circuit breaker trips, the job's checkpoint migrates, and the work
// finishes on a sibling's spot market — cheaper than the §3.2
// "default to on-demand" playbook the paper's single-region client is
// limited to.
//
// Everything is deterministic: rerunning with the same -seed and
// -rate reproduces the identical failover schedule, byte for byte.
package main

import (
	"flag"
	"fmt"
	"log"

	spotbid "repro"
)

func main() {
	var (
		regions = flag.Int("regions", 3, "fleet size (regions with independent price traces)")
		rate    = flag.Float64("rate", 1.0, "home region's per-slot region-outage probability")
		seed    = flag.Int64("seed", 7, "trace and fault seed")
	)
	flag.Parse()

	const typ = spotbid.R3XLarge
	const historySlots = 61 * 288 // two months of 5-minute slots

	members := make([]spotbid.FleetMember, *regions)
	for i := range members {
		tr, err := spotbid.GenerateTrace(typ, spotbid.GenOptions{Days: 63, Seed: *seed + int64(i)*4099})
		if err != nil {
			log.Fatal(err)
		}
		region, err := spotbid.NewRegion(tr)
		if err != nil {
			log.Fatal(err)
		}
		c, err := spotbid.NewClient(region)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 && *rate > 0 {
			// The home region goes down shortly after the job launches.
			inj, err := spotbid.NewChaos(spotbid.ChaosConfig{
				Seed:              *seed*31 + 1,
				RegionOutageRate:  *rate,
				RegionOutageAfter: historySlots + 10,
				RegionOutageSlots: 288,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := inj.Arm(region, c.Volume); err != nil {
				log.Fatal(err)
			}
		}
		members[i] = spotbid.FleetMember{ID: fmt.Sprintf("region-%d", i), Region: region, Client: c}
	}

	ctl, err := spotbid.NewFleet(spotbid.FleetConfig{}, members...)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctl.Skip(historySlots); err != nil {
		log.Fatal(err)
	}
	spec := spotbid.JobSpec{ID: "demo", Type: typ, Exec: 1, Recovery: spotbid.Seconds(30)}
	rep, err := ctl.RunPersistent(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet of %d regions, home outage rate %.2f, seed %d\n\n", *regions, *rate, *seed)
	fmt.Println("failover schedule:")
	fmt.Print(rep.Schedule())
	fmt.Println("\nlegs:")
	for i, leg := range rep.Legs {
		status := "completed"
		if leg.Aborted != "" {
			status = "aborted: " + leg.Aborted
		}
		fmt.Printf("  %d. %-10s %-11s cost $%.4f  run %.2fh  %s\n",
			i+1, leg.Member, leg.Strategy, leg.Report.Outcome.Cost,
			float64(leg.Report.Outcome.RunTime), status)
	}
	fmt.Printf("\ncompleted=%v migrations=%d escalated=%v fleet bill $%.4f\n",
		rep.Outcome.Completed, rep.Migrations, rep.Escalated, rep.FleetCost)

	// The §3.2 alternative: the whole job on-demand in the home region.
	od, err := spotbid.LookupInstance(typ)
	if err != nil {
		log.Fatal(err)
	}
	odCost := od.OnDemand * float64(spec.Exec)
	fmt.Printf("all-on-demand would bill $%.4f — fleet saves %.1f%%\n",
		odCost, 100*(1-rep.FleetCost/odCost))
}
