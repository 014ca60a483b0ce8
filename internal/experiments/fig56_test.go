package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// clientArm runs one §7.1 arm the way Figures 5 and 6 ran it before
// they moved to lanes, and the way the paper's client runs a job: a
// fresh region over the cell's trace, a client warmed through the
// history window and the submit offset, then one RunStrategy call.
func clientArm(tr *trace.Trace, submit int, a arm) (client.Report, error) {
	region, err := cloud.NewRegion(tr)
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
	return cl.RunStrategy(a.spec("exp-job", tr.Type), a.strat)
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
			// The client prices best-offline from its region's own
			// price history.
			oracle := append([]arm{oneTime, {name: "best-offline", strat: strategy.BestOffline{}}}, fig6Arms...)
			for i, a := range oracle {
				want, err := clientArm(c.tr, c.submit, a)
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

// TestDwellArmsMatchClient extends the oracle to AblationDwell: at
// every dwell, each run's one-time and persistent-30 lane reports must
// be reflect.DeepEqual to the client's.
func TestDwellArmsMatchClient(t *testing.T) {
	o := Opts{Seed: 1, Runs: 10}.withDefaults()
	arms := []arm{oneTime, persistent30}
	var failed, interrupted int
	for _, dwell := range dwellSweep {
		for run := 0; run < o.Runs; run++ {
			c, err := dwellCell(o, dwell, run)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.run(arms...)
			c.release()
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range arms {
				want, err := clientArm(c.tr, c.submit, a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("dwell %d run %d %s: lane report diverged from the client\nlane:   %+v\nclient: %+v",
						dwell, run, a.name, got[i], want)
				}
			}
			if !got[0].Outcome.Completed {
				failed++
			}
			interrupted += got[1].Outcome.Interruptions
		}
	}
	// Vacuity guard: the sweep must cover out-bid one-time arms and
	// interrupted persistent ones.
	if failed == 0 || interrupted == 0 {
		t.Fatalf("degenerate sweep: %d failed one-time arms, %d persistent interruptions", failed, interrupted)
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
