package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardsCoverage proves the contiguous split is a partition of
// [0, n): every index visited exactly once, ranges half-open and
// non-overlapping, at every worker count the engine runs under.
func TestShardsCoverage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			visits := make([]int32, n)
			err := Shards(n, func(lo, hi int) error {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("procs=%d n=%d: bad shard [%d,%d)", procs, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("procs=%d n=%d: %v", procs, n, err)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, v)
				}
			}
		}
	}
}

// TestShardsFirstErrorInShardOrder pins the error contract: when
// several shards fail, the caller sees the lowest shard's error, not
// whichever goroutine lost the race.
func TestShardsFirstErrorInShardOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	first := errors.New("first shard")
	later := errors.New("later shard")
	err := Shards(1000, func(lo, hi int) error {
		if lo == 0 {
			return first
		}
		return later
	})
	if err != first {
		t.Fatalf("got %v, want the shard-order first error", err)
	}
}

// TestRunsStopsAfterError checks the grid pool records the error and
// stops dispatching new work. Forced to one worker so the dispatch
// cutoff is deterministic.
func TestRunsStopsAfterError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Runs(100, func(run int) error {
		ran.Add(1)
		if run == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if n := ran.Load(); int(n) >= 100 {
		t.Fatalf("dispatch did not stop: all %d runs executed", n)
	}
}

// TestRunsStopsFeedingAfterError: the same cutoff with every core
// working. Runs already in flight may finish, but the tail of the
// schedule never starts: every run but run 0 waits for run 0's
// failure, so only the runs in flight when the error lands can run.
func TestRunsStopsFeedingAfterError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const runs = 1000
	boom := errors.New("boom")
	var started atomic.Int64
	run0done := make(chan struct{})
	err := Runs(runs, func(run int) error {
		started.Add(1)
		if run == 0 {
			defer close(run0done)
			return boom
		}
		<-run0done
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if n := started.Load(); n >= runs {
		t.Fatalf("dispatch did not stop: all %d runs started", n)
	}
}

// TestRunsFirstError: the returned error is the one run that failed,
// and a clean schedule returns nil.
func TestRunsFirstError(t *testing.T) {
	boom := errors.New("boom-7")
	err := Runs(20, func(run int) error {
		if run == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if err := Runs(20, func(int) error { return nil }); err != nil {
		t.Fatalf("clean schedule returned %v", err)
	}
}

// TestGridCoversEveryPair: every (cell, run) pair executes exactly
// once, so results can be aggregated per pre-allocated slot.
func TestGridCoversEveryPair(t *testing.T) {
	const cells, runs = 7, 11
	var counts [cells][runs]atomic.Int64
	err := Grid(cells, runs, nil, func(cell, run int) error {
		counts[cell][run].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		for r := 0; r < runs; r++ {
			if n := counts[c][r].Load(); n != 1 {
				t.Fatalf("pair (%d,%d) ran %d times", c, r, n)
			}
		}
	}
}

// TestGridTracedChain: traced run-0 repetitions execute serially in
// cell order — the invariant that keeps a shared flight recorder's
// byte stream identical to a sequential per-cell loop.
func TestGridTracedChain(t *testing.T) {
	const cells, runs = 9, 5
	var mu sync.Mutex
	var order []int
	var concurrent, maxConcurrent atomic.Int64
	err := Grid(cells, runs, func(int) bool { return true }, func(cell, run int) error {
		if run != 0 {
			return nil
		}
		if c := concurrent.Add(1); c > maxConcurrent.Load() {
			maxConcurrent.Store(c)
		}
		mu.Lock()
		order = append(order, cell)
		mu.Unlock()
		concurrent.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := maxConcurrent.Load(); n > 1 {
		t.Fatalf("%d traced runs overlapped", n)
	}
	if len(order) != cells {
		t.Fatalf("traced %d cells, want %d", len(order), cells)
	}
	for i, c := range order {
		if c != i {
			t.Fatalf("traced order %v is not cell order", order)
		}
	}
}

// TestGridTracedChainSurvivesError: an error in an untraced repetition
// must not deadlock the traced chain — done gates close even when work
// is skipped.
func TestGridTracedChainSurvivesError(t *testing.T) {
	boom := errors.New("boom")
	err := Grid(6, 4, func(int) bool { return true }, func(cell, run int) error {
		if cell == 0 && run == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// spin yields a pseudo-random number of times, derived from seed, so
// that concurrent calls interleave differently from index to index.
func spin(seed uint64) {
	seed = seed*0x9e3779b97f4a7c15 + 1
	for k := uint64(0); k < seed>>58; k++ {
		runtime.Gosched()
	}
}

// TestOrderedFirstRunsInIndexOrder: the first calls run one at a time
// in index order at any worker count, under jittered work on both
// stages; every index runs each stage exactly once. The order slice is
// appended without a lock, so -race also checks that consecutive first
// calls are ordered by happens-before, not just by luck.
func TestOrderedFirstRunsInIndexOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var order []int
		var inFirst atomic.Int32
		thens := make([]int32, n)
		err := Ordered(n, func(i int) error {
			if inFirst.Add(1) != 1 {
				t.Errorf("procs=%d: first(%d) overlaps another first", procs, i)
			}
			spin(uint64(i))
			order = append(order, i)
			inFirst.Add(-1)
			return nil
		}, func(i int) error {
			spin(uint64(i) + n)
			atomic.AddInt32(&thens[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("procs=%d: first call %d ran index %d; order %v", procs, i, got, order)
			}
		}
		if len(order) != n {
			t.Fatalf("procs=%d: %d first calls, want %d", procs, len(order), n)
		}
		for i, c := range thens {
			if c != 1 {
				t.Fatalf("procs=%d: then(%d) ran %d times", procs, i, c)
			}
		}
	}
}

// TestOrderedThenStartsAfterFirst: then(i) never starts before
// first(i) has returned, and at GOMAXPROCS 1 the calls alternate
// exactly as the serial loop would make them.
func TestOrderedThenStartsAfterFirst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 48
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		returned := make([]atomic.Bool, n)
		var mu sync.Mutex
		var calls []int // first(i) logs i, then(i) logs −i−1
		err := Ordered(n, func(i int) error {
			mu.Lock()
			calls = append(calls, i)
			mu.Unlock()
			spin(uint64(i))
			returned[i].Store(true)
			return nil
		}, func(i int) error {
			if !returned[i].Load() {
				t.Errorf("procs=%d: then(%d) started before first(%d) returned", procs, i, i)
			}
			mu.Lock()
			calls = append(calls, -i-1)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if procs == 1 {
			for k, c := range calls {
				want := k / 2
				if k%2 == 1 {
					want = -want - 1
				}
				if c != want {
					t.Fatalf("procs=1: call %d was %d, want %d (the serial order); calls %v", k, c, want, calls)
				}
			}
		}
	}
}

// TestOrderedLowestFailingIndex: errors land in either stage at two
// indices, under jittered work at GOMAXPROCS 1, 2 and 8; in a quarter
// of the runs the lower failure is made the slower one, so the higher
// lands first. Ordered must return the lower index's error after
// running both steps of every index below it and no then of an index
// whose first failed; at GOMAXPROCS 1, as in the serial loop, nothing
// above the failure runs.
func TestOrderedLowestFailingIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, runs = 16, 400
	errAt := make([]error, n)
	for i := range errAt {
		errAt[i] = fmt.Errorf("index %d", i)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < runs; run++ {
			k, k2 := run%n, (run+5)%n
			low := min(k, k2)
			failStage := run % 2 // 0: first fails, 1: then fails
			var ran [2][n]atomic.Bool
			step := func(stage int) func(int) error {
				return func(i int) error {
					spin(uint64(run*n + i + stage))
					if stage == failStage && i == low && run%4 < 2 {
						time.Sleep(time.Millisecond)
					}
					ran[stage][i].Store(true)
					if stage == failStage && (i == k || i == k2) {
						return errAt[i]
					}
					return nil
				}
			}
			if err := Ordered(n, step(0), step(1)); err != errAt[low] {
				t.Fatalf("procs=%d run %d: got %v, want %v", procs, run, err, errAt[low])
			}
			for i := 0; i < n; i++ {
				first, then := ran[0][i].Load(), ran[1][i].Load()
				switch {
				case i < low && !(first && then),
					i == low && !(first && then == (failStage == 1)),
					i > low && procs == 1 && (first || then):
					t.Fatalf("procs=%d run %d, failure at %d: index %d ran first %v, then %v",
						procs, run, low, i, first, then)
				}
			}
		}
	}
}
