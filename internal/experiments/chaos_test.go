package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestChaosSweepDegradationTable(t *testing.T) {
	opts := Opts{Seed: 1, Runs: 3, Days: 63}
	res, err := ChaosSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(chaosRates) * len(chaosArms); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, a := range chaosArms {
		base, ok := res.Row(a.name, 0)
		if !ok {
			t.Fatalf("missing fault-free row for %s", a.name)
		}
		if base.Completed == 0 {
			t.Errorf("%s: fault-free runs never completed", a.name)
		}
		if base.Faults != 0 {
			t.Errorf("%s: fault-free sweep injected %d faults", a.name, base.Faults)
		}
		if base.CostDegradation != 0 || base.CompletionDegradation != 0 {
			t.Errorf("%s: baseline row reports degradation vs itself", a.name)
		}
	}
	// The highest fault rate must actually inject faults.
	worst, ok := res.Row("persistent-30", 0.10)
	if !ok {
		t.Fatal("missing worst-case row")
	}
	if worst.Faults == 0 {
		t.Error("rate 0.10 injected no faults")
	}
	out := res.Render()
	for _, col := range []string{"strategy", "Δcost", "od-fallback", "faults"} {
		if !strings.Contains(out, col) {
			t.Errorf("Render missing column %q:\n%s", col, out)
		}
	}
}

// TestChaosSweepDeterministic: the whole sweep — fault sequences
// included — reproduces exactly for a fixed seed.
func TestChaosSweepDeterministic(t *testing.T) {
	opts := Opts{Seed: 5, Runs: 2, Days: 63}
	a, err := ChaosSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweep not deterministic:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}
