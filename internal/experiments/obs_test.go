package experiments

import (
	"bytes"
	"testing"

	"repro/internal/client"
	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/sched"
)

// runInstrumented executes one zero-fault-rate chaos run (the injector
// is armed but every rate is zero, so it must be behavior-preserving)
// with the given registry installed.
func runInstrumented(t *testing.T, met *obs.Registry) client.Report {
	t.Helper()
	rep, faults, _, err := runChaos(persistent30.spec("chaos-job", instances.R3XLarge), persistent30.strat, 0, 42, 17, 63, met, nil)
	if err != nil {
		t.Fatalf("runChaos: %v", err)
	}
	if faults.Total() != 0 {
		t.Fatalf("zero-rate injector recorded %d faults", faults.Total())
	}
	if !rep.Outcome.Completed {
		t.Fatalf("zero-rate run did not complete")
	}
	return rep
}

// TestMetricsSnapshotDeterminism is the determinism guard: two runs
// with the same seed and a zero-rate fault injector must produce
// byte-identical metrics snapshots — no wall-clock, goroutine
// scheduling, or map iteration order may leak into the numbers.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	regA, regB := obs.New(), obs.New()
	runInstrumented(t, regA)
	runInstrumented(t, regB)
	jsA, err := regA.Snapshot().JSON()
	if err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	jsB, err := regB.Snapshot().JSON()
	if err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if !bytes.Equal(jsA, jsB) {
		t.Errorf("same seed produced different snapshots:\n--- A ---\n%s\n--- B ---\n%s", jsA, jsB)
	}
	// The snapshot must not be trivially empty, or the guard guards
	// nothing.
	snap := regA.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Errorf("instrumented run recorded no metrics: %+v", snap)
	}
}

// TestMetricsAreObservationOnly checks that installing a registry
// changes nothing about the simulation itself: cost, completion, and
// interruption counts match a run with no registry installed
// (the Noop path the seed shipped with).
func TestMetricsAreObservationOnly(t *testing.T) {
	instr := runInstrumented(t, obs.New())
	plain := runInstrumented(t, nil)
	if plain.Telemetry.Metrics != nil {
		t.Errorf("uninstrumented run carries a metrics snapshot")
	}
	if instr.Telemetry.Metrics == nil {
		t.Errorf("instrumented run carries no metrics snapshot")
	}
	if instr.Outcome.Cost != plain.Outcome.Cost {
		t.Errorf("cost changed under instrumentation: %v vs %v", instr.Outcome.Cost, plain.Outcome.Cost)
	}
	if instr.Outcome.Completion != plain.Outcome.Completion {
		t.Errorf("completion changed under instrumentation: %v vs %v", instr.Outcome.Completion, plain.Outcome.Completion)
	}
	if instr.Outcome.Interruptions != plain.Outcome.Interruptions {
		t.Errorf("interruptions changed under instrumentation: %d vs %d", instr.Outcome.Interruptions, plain.Outcome.Interruptions)
	}
	if instr.BidPrice != plain.BidPrice {
		t.Errorf("bid changed under instrumentation: %v vs %v", instr.BidPrice, plain.BidPrice)
	}
}

// TestRegistrySharedAcrossRunner hammers one registry from the
// experiment runner's worker pool (the sharing pattern a per-sweep
// aggregate registry would see) and checks totals under -race.
func TestRegistrySharedAcrossRunner(t *testing.T) {
	reg := obs.New()
	const runs, perRun = 64, 1000
	err := sched.Runs(runs, func(run int) error {
		c := reg.Counter("hammer.count")
		g := reg.Gauge("hammer.level")
		h := reg.Histogram("hammer.obs", obs.SlotBuckets)
		for i := 0; i < perRun; i++ {
			c.Inc()
			g.Add(1)
			h.Observe(float64(i % 7))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("sched.Runs: %v", err)
	}
	const want = int64(runs * perRun)
	if got := reg.Counter("hammer.count").Value(); got != want {
		t.Errorf("counter = %d, want sequential sum %d", got, want)
	}
	// Adding 1.0 is exact in floating point, so even the gauge total
	// is schedule-independent.
	if got := reg.Gauge("hammer.level").Value(); got != float64(want) {
		t.Errorf("gauge = %v, want %v", got, float64(want))
	}
	if got := reg.Histogram("hammer.obs", obs.SlotBuckets).Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}
