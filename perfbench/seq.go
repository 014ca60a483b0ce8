package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/trace"
)

// freshState puts the process, off the clock, into the state a fresh
// `cmd/experiments` or `cmd/corebench` process starts an op from: an
// empty trace memo and a collected heap. Without it an op's GC count
// depends on what the previous op left behind, which gives latency a
// second mode (a fleet op allocates ~1.2 MB, so without a collection
// about one op in five pays for a GC).
func freshState() {
	trace.ResetMemo()
	runtime.GC()
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 7

// repeatSetup times fn setupRepeats times, each from freshState, and
// returns the durations in seconds.
func repeatSetup(fn func() error) ([]float64, error) {
	out := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		freshState()
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// seqResult is what a sequential op loop measured.
type seqResult struct {
	latMs     []float64 // per-op wall time
	timed     time.Duration
	attempted int
	failed    int
	rt        rtTotals
}

// runSequential runs op back to back for d, each op from freshState,
// and checks every op's output. want, when non-empty, is the recorded
// hex SHA-256 of the correct output; otherwise the first op's output
// is the reference and every later op must reproduce it byte for byte.
// A failed or mismatching op counts as failed; its time is not a
// latency sample.
func runSequential(d time.Duration, want string, op func() ([]byte, error)) seqResult {
	var r seqResult
	var ref []byte
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		freshState()
		r.attempted++
		rt0 := readRuntime()
		start := time.Now()
		out, err := op()
		el := time.Since(start)
		r.rt.add(readRuntime().sub(rt0))
		if err == nil {
			err = checkOutput(out, want, &ref)
		}
		if err != nil {
			r.failed++
			fmt.Printf("  op %d failed: %v\n", r.attempted, err)
			continue
		}
		r.timed += el
		r.latMs = append(r.latMs, float64(el.Nanoseconds())/1e6)
	}
	return r
}

// checkOutput compares out against the recorded hash want (when set)
// and against the run's first output *ref.
func checkOutput(out []byte, want string, ref *[]byte) error {
	if want != "" {
		if got := sha256Hex(out); got != want {
			return fmt.Errorf("output hash %s, want the recorded %s", got, want)
		}
	}
	if *ref == nil {
		*ref = out
		return nil
	}
	if !bytes.Equal(out, *ref) {
		return fmt.Errorf("output differs from the run's first op")
	}
	return nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// addEndToEnd reports the end-to-end metrics of a sequential workload.
func addEndToEnd(o *outcome, setups []float64, r seqResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	addSetup(o, setups)
	ops := 0.0
	if r.timed > 0 {
		ops = float64(len(r.latMs)) / r.timed.Seconds()
	}
	o.add("ops_per_s", ops, "1/s", len(r.latMs))
	o.add("latency_ms_p50", quantile(r.latMs, 0.5), "ms", len(r.latMs))
	o.add("latency_ms_p90", quantile(r.latMs, 0.9), "ms", len(r.latMs))
	r.rt.print("runtime")
}

// addSetup reports the median set-up time and prints every sample.
func addSetup(o *outcome, setups []float64) {
	fmt.Printf("  set-up samples (s): %.4f\n", setups)
	o.add("setup_s", quantile(setups, 0.5), "s", len(setups))
}
