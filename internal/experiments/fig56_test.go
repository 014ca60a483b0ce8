package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// clientArm runs one §7.1 arm the way Figures 5 and 6 ran it before
// they moved to lanes, and the way the paper's client runs a job: a
// fresh region over the cell's trace, a client warmed through the
// history window and the submit offset, then one Run* call. Its
// best-offline bid comes from the region's own price history.
func clientArm(typ instances.Type, seed int64, submit, days int, name string) (client.Report, error) {
	region, err := regionFor([]instances.Type{typ}, seed, days)
	if err != nil {
		return client.Report{}, err
	}
	cl, err := client.New(region)
	if err != nil {
		return client.Report{}, err
	}
	if err := cl.Skip(submit); err != nil {
		return client.Report{}, err
	}
	spec := job.Spec{ID: "exp-job", Type: typ, Exec: 1}
	switch name {
	case "one-time":
		return cl.RunOneTime(spec)
	case "best-offline":
		hist, err := region.PriceHistory(typ, timeslot.Hours(10))
		if err != nil {
			return client.Report{}, err
		}
		best, err := hist.BestOfflinePrice(1)
		if err != nil {
			return client.Report{}, err
		}
		return cl.RunFixedBid("best-offline", spec, best, cloud.OneTime)
	case "persistent-10":
		spec.Recovery = timeslot.Seconds(10)
		return cl.RunPersistent(spec)
	case "persistent-30":
		spec.Recovery = timeslot.Seconds(30)
		return cl.RunPersistent(spec)
	case "percentile-90":
		spec.Recovery = timeslot.Seconds(30)
		return cl.RunPercentile(spec, 90, cloud.Persistent)
	}
	return client.Report{}, fmt.Errorf("unknown arm %q", name)
}

// TestCellArmsMatchClient is the lane path's oracle: for seeds 1 and 5
// at ten runs, every Figure 5 and Figure 6 arm of every cell, including
// the Figure 6 arms of cells whose one-time base failed, is run both as
// a lane and through the client, and the two reports must be
// reflect.DeepEqual: the same strategy name, bid, analytic view and
// job outcome, bit for bit.
func TestCellArmsMatchClient(t *testing.T) {
	var mu sync.Mutex
	var arms, unfinished, failedBases int
	for _, seed := range []int64{1, 5} {
		o := Opts{Seed: seed, Runs: 10}.withDefaults()
		err := sweepCells(o, func(ti, run int, c *cell) error {
			bo, err := c.bestOffline()
			if err != nil {
				return err
			}
			all := append([]arm{oneTime, bo}, fig6Arms...)
			got, err := c.run(all...)
			if err != nil {
				return err
			}
			traceSeed := o.Seed + int64(ti)*1013 + int64(run)*7919
			for i, a := range all {
				want, err := clientArm(c.typ, traceSeed, c.submit, o.Days, a.name)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got[i], want) {
					return fmt.Errorf("seed %d %s run %d %s: lane report diverged from the client\nlane:   %+v\nclient: %+v",
						seed, c.typ, run, a.name, got[i], want)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			arms += len(all)
			for _, rep := range got {
				if !rep.Outcome.Completed {
					unfinished++
				}
			}
			if !got[0].Outcome.Completed {
				failedBases++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d arms matched; %d did not complete; %d cells had a failed one-time base", arms, unfinished, failedBases)
	// Vacuity guard: the comparison must cover arms that ran out the
	// trace or were out-bid, and cells whose base failed, whose Figure 6
	// arms the figure itself never prices.
	if unfinished == 0 || failedBases == 0 {
		t.Fatalf("degenerate sweep: %d unfinished arms, %d failed bases — pick other seeds", unfinished, failedBases)
	}
}

// TestMemoHoldsDefaultSweep pins the trace memo's default capacity to
// the default sweep: from an empty memo, Figure 6 at ten runs finds
// every one of the 50 cell traces Figure 5 generated.
func TestMemoHoldsDefaultSweep(t *testing.T) {
	trace.SetMemoCapacity(trace.DefaultMemoCapacity)
	defer trace.ResetMemo()
	o := Opts{Seed: 1, Runs: 10}
	if _, err := Figure5(o); err != nil {
		t.Fatal(err)
	}
	hits5, misses5 := trace.MemoStats()
	if _, err := Figure6(o); err != nil {
		t.Fatal(err)
	}
	hits, misses := trace.MemoStats()
	t.Logf("Figure 5: %d hits, %d misses; Figure 6: %d hits, %d misses", hits5, misses5, hits-hits5, misses-misses5)
	if misses5 != 50 {
		t.Errorf("Figure 5 generated %d traces, want its 50 cells", misses5)
	}
	if misses != misses5 {
		t.Errorf("Figure 6 regenerated %d traces Figure 5 had generated", misses-misses5)
	}
}
