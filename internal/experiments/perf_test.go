package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/trace"
)

// chaosObservation is one full sweep's observable record: the result
// struct, the merged metrics snapshot JSON, and the flight-recorder
// JSONL export.
type chaosObservation struct {
	res   ChaosResult
	snap  []byte
	jsonl []byte
}

// observeChaosSweep runs the seeded chaos sweep with fresh metrics and
// recorder and captures everything a caller could see.
func observeChaosSweep(t *testing.T, o Opts) chaosObservation {
	t.Helper()
	met := obs.New()
	rec := event.NewRecorder()
	o.Metrics = met
	o.Trace = rec
	res, err := ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := met.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return chaosObservation{res: res, snap: snap, jsonl: jsonl.Bytes()}
}

// TestCachingPreservesExperimentBytes is the PR's determinism guard:
// with the trace memo-cache on versus off, a fixed-seed experiment
// must produce a byte-identical report, metrics snapshot JSON, and
// flight-recorder export. Caching is a performance detail, never an
// observable one.
func TestCachingPreservesExperimentBytes(t *testing.T) {
	o := Opts{Seed: 5, Runs: 2, Days: 63}

	trace.SetMemoCapacity(0) // memo off: every generation runs the generator
	uncached := observeChaosSweep(t, o)
	trace.SetMemoCapacity(64) // memo on, sized to hold the sweep's traces
	defer trace.ResetMemo()
	cold := observeChaosSweep(t, o) // populates the cache
	warm := observeChaosSweep(t, o) // served from it

	for _, cached := range []struct {
		name string
		obs  chaosObservation
	}{{"cold cache", cold}, {"warm cache", warm}} {
		if !reflect.DeepEqual(uncached.res, cached.obs.res) {
			t.Fatalf("%s: sweep result differs from uncached run", cached.name)
		}
		if !bytes.Equal(uncached.snap, cached.obs.snap) {
			t.Fatalf("%s: metrics snapshot differs from uncached run:\nuncached %s\ncached   %s",
				cached.name, uncached.snap, cached.obs.snap)
		}
		if !bytes.Equal(uncached.jsonl, cached.obs.jsonl) {
			t.Fatalf("%s: flight-recorder export differs from uncached run", cached.name)
		}
	}
	if hits, _ := trace.MemoStats(); hits == 0 {
		t.Fatal("warm run never hit the cache — the guard is vacuous")
	}
}

// TestCachingPreservesFigure5 extends the guard to a figure pipeline
// that uses the incremental client monitor on every tick: cached and
// uncached runs must agree exactly.
func TestCachingPreservesFigure5(t *testing.T) {
	o := Opts{Seed: 9, Runs: 2, Days: 63}

	trace.SetMemoCapacity(0)
	uncached, err := Figure5(o)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetMemoCapacity(64)
	defer trace.ResetMemo()
	cached, err := Figure5(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncached, cached) {
		t.Fatal("Figure5 result changed when trace caching was enabled")
	}
}
