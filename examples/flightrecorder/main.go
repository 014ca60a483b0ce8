// Flightrecorder demonstrates the deterministic event-tracing layer:
// the chaos failover of examples/failover is replayed with a flight
// recorder attached, and the resulting trace — the job's root span,
// the per-region legs under it, and every PriceSet / BidSubmitted /
// BreakerTransition / Drain / CheckpointExport / Migrate /
// CheckpointImport event in causal order — is rendered as a per-slot
// timeline and optionally exported for Perfetto / chrome://tracing.
//
// Everything is deterministic: rerunning with the same -seed produces
// a byte-identical timeline and byte-identical export files. No
// wall-clock time ever enters the trace.
//
// Usage:
//
//	go run ./examples/flightrecorder
//	go run ./examples/flightrecorder -chrome trace.json   # then load in Perfetto
//	go run ./examples/flightrecorder -jsonl trace.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	spotbid "repro"
)

func main() {
	var (
		regions = flag.Int("regions", 3, "fleet size (regions with independent price traces)")
		seed    = flag.Int64("seed", 7, "trace and fault seed")
		chrome  = flag.String("chrome", "", "also write a Chrome trace-viewer JSON file (load in Perfetto)")
		jsonl   = flag.String("jsonl", "", "also write the trace as JSON Lines")
	)
	flag.Parse()

	const typ = spotbid.R3XLarge
	const historySlots = 61 * 288 // two months of 5-minute slots

	rec := spotbid.NewRecorder()

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
		if i == 0 {
			// The home region goes down shortly after the job launches.
			inj, err := spotbid.NewChaos(spotbid.ChaosConfig{
				Seed:              *seed*31 + 1,
				RegionOutageRate:  1,
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

	ctl, err := spotbid.NewFleet(spotbid.FleetConfig{Trace: rec}, members...)
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

	fmt.Printf("fleet of %d regions, forced home outage, seed %d\n", *regions, *seed)
	fmt.Printf("completed=%v migrations=%d escalated=%v fleet bill $%.4f\n\n",
		rep.Outcome.Completed, rep.Migrations, rep.Escalated, rep.FleetCost)

	fmt.Printf("flight recorder: %d events, %d spans\n\n", rec.Len(), len(rec.Spans()))
	fmt.Println("per-slot timeline:")
	if err := rec.WriteTimeline(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s — open https://ui.perfetto.dev and drag the file in;\n", *chrome)
		fmt.Println("the time axis is in slots (1 slot = 1 µs of viewer time).")
	}
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (spans in ID order, then events in causal order)\n", *jsonl)
	}
}
