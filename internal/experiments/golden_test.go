package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

// The batched-core equivalence goldens: the rendered bytes of the
// Table 3 and Figure 5/6 macros (plus Table 3's merged metrics
// snapshot and flight-recorder JSONL), captured from the legacy
// per-slot path before the struct-of-arrays / pooled-quote refactor
// landed, and Table 3's TSDB dump, captured from the serial Table 3
// before its types moved onto sched.Ordered. Table 3 now generates and
// solves its types on the worker pool and records them in type order
// on the caller, and the ECDFs sort by radix. The contract is that the
// fast paths change no observable byte — these tests pin it.
// Regenerate with
//
//	go test ./internal/experiments -run TestBatchedCore -update-golden
//
// only after an intentional behavior change, never to paper over an
// equivalence break.
var updateGolden = flag.Bool("update-golden", false, "rewrite the batched-core equivalence goldens")

// goldenOpts is the fixed-seed configuration every golden uses. Small
// run counts keep the suite fast; the seeds exercise the incremental
// monitor on every supervised slot.
func goldenOpts() Opts { return Opts{Seed: 7, Runs: 2, Days: 63} }

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden")
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden on the legacy path): %v", path, err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: output diverged from the legacy-path golden\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

// renderGoldens produces every golden's bytes under the current
// implementation with a fresh trace memo.
func renderGoldens(t *testing.T) map[string][]byte {
	t.Helper()
	trace.SetMemoCapacity(64)
	defer trace.ResetMemo()
	out := map[string][]byte{}

	met := obs.New()
	rec := event.NewRecorder(event.Config{Unbounded: true})
	db := tsdb.New(tsdb.Config{})
	o := goldenOpts()
	o.Metrics = met
	o.Trace = rec
	o.TSDB = db
	t3, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	out["table3"] = []byte(t3.Render())
	snap, err := met.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	out["table3_metrics"] = snap
	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	out["table3_trace"] = jsonl.Bytes()
	out["table3_tsdb"] = db.DumpJSONL()

	f5, err := Figure5(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	out["figure5"] = []byte(f5.Render())

	f6, err := Figure6(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	out["figure6"] = []byte(f6.Render())
	return out
}

// TestBatchedCoreGoldens pins the Table 3 / Figure 5–6 macros to the
// legacy path's bytes at the default GOMAXPROCS.
func TestBatchedCoreGoldens(t *testing.T) {
	for name, got := range renderGoldens(t) {
		checkGolden(t, name, got)
	}
}

// TestBatchedCoreGoldensProcMatrix re-runs the macro goldens — the
// rendered reports, the merged metrics JSON, the flight-recorder
// JSONL and the TSDB dump — at GOMAXPROCS 1, 2, NumCPU and 8:
// worker-pool sizing and shard boundaries both move with the proc
// count, so any leak of scheduling into an observable byte fails
// here. 8 runs more workers than a small machine has cores.
func TestBatchedCoreGoldensProcMatrix(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by TestBatchedCoreGoldens")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, runtime.NumCPU(), 8} {
		runtime.GOMAXPROCS(p)
		for name, got := range renderGoldens(t) {
			checkGolden(t, name, got)
		}
	}
}
