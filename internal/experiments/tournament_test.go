package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/strategy"
)

// TestTournamentLeague runs the full grid at a smoke budget and checks
// the league's structural promises: every registered strategy ranked
// across every rate, zero invariant violations for the paper-optimal
// strategies, byte-identical replay everywhere, and an on-demand
// baseline that saves nothing by construction.
func TestTournamentLeague(t *testing.T) {
	res, err := Tournament(Opts{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 7 {
		t.Fatalf("league ranks %d strategies, want ≥ 7", len(res.Rows))
	}
	if len(res.Rows) != len(strategy.Names()) {
		t.Errorf("league has %d rows, registry has %d strategies", len(res.Rows), len(strategy.Names()))
	}
	for i, row := range res.Rows {
		if row.Rank != i+1 {
			t.Errorf("row %d has rank %d", i, row.Rank)
		}
		if len(row.Cells) != len(tournamentRates) {
			t.Errorf("%s covers %d cells, want %d", row.Strategy, len(row.Cells), len(tournamentRates))
		}
		if !row.ReplayOK {
			t.Errorf("%s did not replay byte-identically", row.Strategy)
		}
		if i > 0 && res.Rows[i-1].Score < row.Score {
			t.Errorf("league not sorted: %s (%.3f) after %s (%.3f)",
				row.Strategy, row.Score, res.Rows[i-1].Strategy, res.Rows[i-1].Score)
		}
	}
	for _, name := range []string{"one-time", "persistent"} {
		row, ok := res.Row(name)
		if !ok {
			t.Fatalf("%s missing from the league", name)
		}
		if row.Violations != 0 {
			for _, c := range row.Cells {
				for _, v := range c.Violations {
					t.Errorf("%s rate %.2f: %s", name, c.Rate, v)
				}
			}
		}
	}
	// The paper-optimal strategies must reproduce the ≈90% saving in
	// their fault-free cells (under chaos the degraded-telemetry stall
	// watchdog legitimately converts persistent idling into on-demand
	// completion, so only the rate-0 cell pins the paper's number).
	for _, name := range []string{"one-time", "persistent"} {
		row, _ := res.Row(name)
		if len(row.Cells) == 0 || row.Cells[0].Rate != 0 {
			t.Fatalf("%s has no fault-free cell", name)
		}
		if clean := row.Cells[0]; !(clean.MeanSavings > 0.8) {
			t.Errorf("%s fault-free savings = %.3f, want > 0.8", name, clean.MeanSavings)
		}
	}
	// The adaptive engine must actually adapt: autospot's on-demand →
	// spot replacement is a rebid in every run.
	if row, _ := res.Row("autospot"); row.Rebids == 0 {
		t.Error("autospot never rebid — the adaptive path did not run")
	}
	if row, _ := res.Row("on-demand"); row.Savings > 0.01 || row.CompletionRate != 1 {
		t.Errorf("on-demand baseline: savings %.3f completion %.2f", row.Savings, row.CompletionRate)
	}
	if !strings.Contains(res.Render(), "rank") {
		t.Error("Render lost its header")
	}
}

// TestTournamentPreservesExperimentBytes pins the tournament to the
// repo's replay contract: the same seed produces a byte-identical
// league table, metrics snapshot, and flight-recorder JSONL export.
func TestTournamentPreservesExperimentBytes(t *testing.T) {
	run := func() (string, []byte, []byte) {
		met := obs.New()
		rec := event.NewRecorder()
		res, err := Tournament(Opts{Runs: 1, Metrics: met, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := met.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res.Render(), snap, buf.Bytes()
	}
	table1, snap1, trace1 := run()
	table2, snap2, trace2 := run()
	if table1 != table2 {
		t.Errorf("league table diverged:\n%s\nvs\n%s", table1, table2)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("metrics snapshots diverged")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Error("flight-recorder exports diverged")
	}
	if len(trace1) == 0 {
		t.Error("flight recorder captured nothing")
	}
}
