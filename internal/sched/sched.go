// Package sched provides the deterministic bounded-parallelism
// primitives shared by the experiment sweeps (internal/experiments)
// and the struct-of-arrays batch engine (internal/lanes): a cell×run
// grid pool with an ordered traced-run chain, contiguous index shards
// for data-parallel array kernels, and an ordered stage that runs each
// index's work on the pool and its tail on the caller, in index order.
//
// All three primitives carry the same determinism contract: the
// worker callback writes its outcome into a pre-allocated per-index
// slot and never touches shared state, so the caller can reduce the
// slots serially in index order after the pool drains. (Ordered's tail
// is that reduction, run while later indices still work: it runs on
// the caller, one index at a time, in index order.) Under that
// contract every observable byte of a call that succeeds is
// independent of GOMAXPROCS and of the OS scheduler — parallelism
// changes only the wall-clock, never the result. After an error, what
// else already ran (and, for Grid, which error is returned) may depend
// on the schedule.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runs executes fn(run) for run ∈ [0, runs) across a bounded worker
// pool and returns the first error (by completion order). Each run
// must own its state; results go into pre-allocated per-run slots.
func Runs(runs int, fn func(run int) error) error {
	return Grid(1, runs, nil, func(_, run int) error { return fn(run) })
}

// Grid feeds every (cell, run) pair of a sweep — cell-major, runs
// ascending within a cell — into one bounded worker pool sized to
// GOMAXPROCS. This replaces a per-cell barrier (one pool per cell),
// whose rendezvous left workers idle at every cell edge while the
// cell's slowest repetition finished; here the pool drains the whole
// cell×run grid continuously.
//
// traced, when non-nil, marks cells whose run-0 repetition feeds a
// shared flight recorder. Those repetitions are chained: cell c's
// traced run may only start once cell c−1's traced run has finished,
// which preserves the sequential byte stream — all of cell c's
// emissions precede cell c+1's — while every untraced repetition
// schedules freely around them. The chain cannot deadlock: pairs are
// dispatched in cell order, so the gate a traced run waits on always
// belongs to a pair already taken by some worker, and gates close
// unconditionally (error or not).
//
// The first error (by completion order) is returned, and dispatch
// stops as soon as one is recorded: repetitions already running
// finish, but no new ones start.
func Grid(cells, runs int, traced func(cell int) bool, fn func(cell, run int) error) error {
	total := cells * runs
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}

	type item struct {
		cell, run  int
		gate, done chan struct{} // traced-run chain; nil = ungated
	}

	var stop atomic.Bool
	errOnce := sync.Once{}
	var firstErr error
	jobs := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				if it.gate != nil {
					<-it.gate
				}
				// The done channel must close even when the work is
				// skipped or fails, or the next traced run would wait
				// forever.
				if !stop.Load() {
					if err := fn(it.cell, it.run); err != nil {
						errOnce.Do(func() { firstErr = err })
						stop.Store(true)
					}
				}
				if it.done != nil {
					close(it.done)
				}
			}
		}()
	}

	var prevTraced chan struct{}
feed:
	for cell := 0; cell < cells; cell++ {
		for run := 0; run < runs; run++ {
			if stop.Load() {
				break feed
			}
			it := item{cell: cell, run: run}
			if run == 0 && traced != nil && traced(cell) {
				it.gate = prevTraced
				it.done = make(chan struct{})
				prevTraced = it.done
			}
			jobs <- it
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// Shards splits [0, n) into min(GOMAXPROCS, n) contiguous half-open
// ranges of near-equal size and runs fn(lo, hi) on each from its own
// goroutine, returning the first error in shard order. The contiguous
// split is what makes it the right shape for struct-of-arrays
// kernels: each worker walks a dense slice of every lane array —
// sequential loads the prefetcher can follow, no false sharing beyond
// the two boundary cache lines per shard.
//
// Shard boundaries vary with GOMAXPROCS, so bit-identical results
// require the per-index work itself to be schedule-independent: any
// randomness must come from streams seeded by the index (not drawn
// from a shared source in arrival order), and reductions must happen
// serially after Shards returns. See internal/lanes for the canonical
// use.
func Shards(n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		return fn(0, n)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ordered runs work(i) for every i ∈ [0, n) on a pool of GOMAXPROCS
// goroutines, and tail(i) on the calling goroutine, in index order,
// each as soon as work(0), …, work(i) have returned. Like Grid's
// callback, work must write only to its own slot. tail runs one index
// at a time, after its work, so it may read that slot and touch shared
// state (a metrics registry, a flight recorder), and its effects land
// in index order whatever the schedule. At GOMAXPROCS 1 it is the plain
// serial loop: work(0), tail(0), work(1), tail(1), ….
//
// Ordered returns the error of the lowest index whose work fails, after
// running tail for exactly the indices below it and waiting for every
// work call in flight. Once a work call fails no worker takes a new
// index; the returned error and the tails that ran do not depend on
// the schedule, but which work calls above the failure ran may.
func Ordered(n int, work func(i int) error, tail func(i int)) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := work(i); err != nil {
				return err
			}
			tail(i)
		}
		return nil
	}
	errs := make([]error, n)
	done := make([]chan struct{}, n) // closed when work(i) returns
	for i := range done {
		done[i] = make(chan struct{})
	}
	// Indices are taken in increasing order and every index taken is
	// worked, so every index below a failure is worked.
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = work(i); errs[i] != nil {
					stop.Store(true)
				}
				close(done[i])
			}
		}()
	}
	defer wg.Wait()
	for i := 0; i < n; i++ {
		<-done[i]
		if errs[i] != nil {
			return errs[i]
		}
		tail(i)
	}
	return nil
}
