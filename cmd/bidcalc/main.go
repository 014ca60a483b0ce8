// Command bidcalc is the paper's client-side bid calculator (Fig. 1):
// given a spot-price history and the job's characteristics, it prints
// the optimal bids and their analytic predictions.
//
// Usage:
//
//	spotsim -type r3.xlarge > history.csv
//	bidcalc -history history.csv -exec 1h -recovery 30s
//	bidcalc -history history.csv -exec 2h -recovery 30s -overhead 60s -mapreduce -workers 4
//
// Without -history, a calibrated synthetic two-month history for
// -type is generated on the fly.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

func main() {
	var (
		historyPath = flag.String("history", "", "price history CSV (from spotsim or DescribeSpotPriceHistory)")
		typ         = flag.String("type", "r3.xlarge", "instance type when generating a history")
		seed        = flag.Int64("seed", 1, "generator seed when no -history is given")
		execT       = flag.Duration("exec", time.Hour, "execution time t_s")
		recovery    = flag.Duration("recovery", 30*time.Second, "recovery time t_r")
		overhead    = flag.Duration("overhead", time.Minute, "split overhead t_o (MapReduce)")
		mapReduce   = flag.Bool("mapreduce", false, "plan a MapReduce job (slave role on this market)")
		workers     = flag.Int("workers", 0, "MapReduce worker count (0 = minimum feasible)")
		masterType  = flag.String("master", "", "MapReduce master instance type (default: same as -type)")
		deadline    = flag.Duration("deadline", 0, "optional hard deadline; prints the §8 risk-averse bid")
		missProb    = flag.Float64("missprob", 0.05, "acceptable deadline-miss probability with -deadline")
	)
	flag.Parse()
	if *deadline < 0 {
		fatalf("-deadline must not be negative, got %v", *deadline)
	}
	if *deadline > 0 && !(*missProb > 0 && *missProb < 1) {
		fatalf("-missprob must lie in (0, 1) with -deadline, got %v", *missProb)
	}

	tr := loadHistory(*historyPath, *typ, *seed)
	spec, err := instances.Lookup(tr.Type)
	if err != nil {
		fatalf("%v", err)
	}
	ecdf, err := tr.ECDF(0)
	if err != nil {
		fatalf("%v", err)
	}
	m := core.Market{Price: ecdf, OnDemand: spec.OnDemand, Slot: timeslot.Hours(float64(tr.Grid.Slot))}

	fmt.Printf("market: %s, %d price points, floor $%.4f, on-demand $%.4f\n\n",
		tr.Type, tr.Len(), tr.Min(), spec.OnDemand)

	job := core.Job{Exec: timeslot.HoursOf(*execT), Recovery: timeslot.HoursOf(*recovery)}
	if *mapReduce {
		planMapReduce(m, tr, job, *masterType, *overhead, *workers, *seed)
		return
	}

	ot, err := m.OneTimeBid(job)
	if err != nil {
		fatalf("one-time bid: %v", err)
	}
	printBid("one-time (Prop. 4)", ot)
	ps, err := m.PersistentBid(job)
	if err != nil {
		fatalf("persistent bid: %v", err)
	}
	printBid("persistent (Prop. 5)", ps)

	if *deadline > 0 {
		dj := core.DeadlineJob{Job: job, Deadline: timeslot.HoursOf(*deadline), MissProb: *missProb}
		db, err := m.DeadlineBid(dj)
		if err != nil {
			fmt.Printf("deadline bid (§8):          infeasible: %v\n\n", err)
		} else {
			miss, _ := m.MissProbability(db.Price, dj)
			fmt.Printf("deadline %.2fh @ ≤%.0f%% miss (§8):\n", float64(dj.Deadline), 100**missProb)
			fmt.Printf("  bid price            $%.4f/h (miss probability %.3f)\n\n", db.Price, miss)
		}
	}

	if p90, err := m.PercentileBid(90); err == nil {
		if b, err := m.EvalPersistent(p90, job); err == nil {
			printBid("90th percentile (baseline)", b)
		}
	}
	if best, err := tr.LastHours(10); err == nil {
		if p, err := best.BestOfflinePrice(job.Exec); err == nil {
			fmt.Printf("%-28s bid $%.4f (may underbid the future — §7.1)\n", "best offline, last 10h:", p)
		}
	}
}

func loadHistory(path, typ string, seed int64) *trace.Trace {
	if path == "" {
		tr, err := trace.Generate(instances.Type(typ), trace.GenOptions{Seed: seed})
		if err != nil {
			fatalf("generating history: %v", err)
		}
		return tr
	}
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	return tr
}

func printBid(name string, b core.Bid) {
	fmt.Printf("%s:\n", name)
	fmt.Printf("  bid price            $%.4f/h (F(p) = %.3f)\n", b.Price, b.AcceptProb)
	fmt.Printf("  expected paid price  $%.4f/h\n", b.ExpectedSpot)
	fmt.Printf("  expected completion  %.2f h (running %.2f h, ≈%.1f interruptions)\n",
		float64(b.ExpectedCompletion), float64(b.ExpectedRunTime), b.ExpectedInterruptions)
	fmt.Printf("  expected cost        $%.4f  (on-demand $%.4f, savings %.1f%%)\n\n",
		b.ExpectedCost, b.OnDemandCost, 100*b.Savings())
}

func planMapReduce(slaveMarket core.Market, tr *trace.Trace, job core.Job, masterType string, overhead time.Duration, workers int, seed int64) {
	mt := tr.Type
	if masterType != "" {
		mt = instances.Type(masterType)
	}
	masterM := slaveMarket
	if mt != tr.Type {
		mtr, err := trace.Generate(mt, trace.GenOptions{Seed: seed + 99})
		if err != nil {
			fatalf("generating master history: %v", err)
		}
		spec, err := instances.Lookup(mt)
		if err != nil {
			fatalf("%v", err)
		}
		ecdf, err := mtr.ECDF(0)
		if err != nil {
			fatalf("%v", err)
		}
		masterM = core.Market{Price: ecdf, OnDemand: spec.OnDemand}
	}
	plan, err := core.PlanMapReduce(masterM, slaveMarket, core.MapReduceJob{
		Exec:     job.Exec,
		Recovery: job.Recovery,
		Overhead: timeslot.HoursOf(overhead),
		Workers:  workers,
	})
	if err != nil {
		fatalf("planning: %v", err)
	}
	fmt.Printf("MapReduce plan (Eq. 20):\n")
	fmt.Printf("  master (%s): one-time bid $%.4f/h\n", mt, plan.Master.Price)
	fmt.Printf("  slaves (%s): %d × persistent bid $%.4f/h\n", tr.Type, plan.Workers, plan.Slaves.Price)
	fmt.Printf("  master must outlive    %.2f h (worst-case slave completion)\n", float64(plan.MasterRuntime))
	fmt.Printf("  expected completion    %.2f h\n", float64(plan.Completion))
	fmt.Printf("  expected cost          $%.4f (master $%.4f + slaves $%.4f)\n",
		plan.TotalCost, plan.Master.ExpectedCost, plan.Slaves.ExpectedCost)
	fmt.Printf("  on-demand baseline     $%.4f (savings %.1f%%)\n", plan.OnDemandCost, 100*plan.Savings())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bidcalc: "+format+"\n", args...)
	os.Exit(1)
}
