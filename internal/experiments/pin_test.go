package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
)

// AblationDwell, AblationBilling, ChaosSweep and Tournament are pinned
// by the SHA-256 digest of every byte they produce: the rendered table
// and, where they take Metrics and Trace, the merged metrics JSON and
// the flight-recorder JSONL. The digests are those of the
// region-and-client runs each experiment made before its arms moved
// onto lanes or onto one shared chaos runner, so the move changed no
// byte. The trace exports run to 1.2–2.6 MB, so only their digests are
// kept.

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkDigest(t *testing.T, name string, got []byte, want string) {
	t.Helper()
	if d := digest(got); d != want {
		t.Errorf("%s: sha256 %s, pinned %s", name, d, want)
	}
}

// instrumented runs an experiment with a fresh registry and an
// unbounded recorder and returns its three outputs.
func instrumented(t *testing.T, o Opts, run func(Opts) (string, error)) (render, metrics, jsonl []byte) {
	t.Helper()
	met := obs.New()
	rec := event.NewRecorder(event.Config{Unbounded: true})
	o.Metrics, o.Trace = met, rec
	out, err := run(o)
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
	return []byte(out), snap, buf.Bytes()
}

func TestAblationDwellPinned(t *testing.T) {
	res, err := AblationDwell(Opts{Seed: 1, Runs: 10})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "AblationDwell", []byte(res.Render()), "4a33252ea7fee424cd4a639965c2c518cfdafbffaa720b5eeaefa3e8775772ee")
}

func TestAblationBillingPinned(t *testing.T) {
	res, err := AblationBilling(Opts{Seed: 1, Runs: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "AblationBilling", []byte(res.Render()), "3781750975ad6215bb4feea4b459b61ce33eb385bfcb4cdf79250e15e82537b3")
}

func TestChaosSweepPinned(t *testing.T) {
	for _, c := range []struct {
		seed                   int64
		render, metrics, jsonl string
	}{
		{1,
			"b9a5970a7c5a776fb2a2fb82878d78f43505fddff344fc342aee88fb64939013",
			"23bafaf3a5beb28a78feb8ef9fabe704157cd948df68836e59962c673cfbddd1",
			"dca05693b8f7258e7ac59dc451870c5bfb88e58f776b007faa7108473fd6f361"},
		{5,
			"f8a132d4ed2b772dd822280b8e85257065f7cdd9f65517a5eae05afd444c4491",
			"7a77e573f2cfcde145153022e62304276029b0d84103e5ade3d71b14a49c7e1d",
			"bbe9c76c199ba7de2cf7b11111c91568bc763e6f9b102dd55662df337f472f5a"},
	} {
		render, metrics, jsonl := instrumented(t, Opts{Seed: c.seed, Runs: 2, Days: 63}, func(o Opts) (string, error) {
			res, err := ChaosSweep(o)
			return res.Render(), err
		})
		checkDigest(t, "ChaosSweep render", render, c.render)
		checkDigest(t, "ChaosSweep metrics", metrics, c.metrics)
		checkDigest(t, "ChaosSweep trace", jsonl, c.jsonl)
	}
}

func TestTournamentPinned(t *testing.T) {
	render, metrics, jsonl := instrumented(t, Opts{Runs: 1}, func(o Opts) (string, error) {
		res, err := Tournament(o)
		return res.Render(), err
	})
	checkDigest(t, "Tournament render", render, "b380393bcbe5e43544b9c602ac1f7fb454c45651f659808b0ad39bbd7afd253f")
	checkDigest(t, "Tournament metrics", metrics, "b0879cf465d2744ac9aa850ceb2590ec7021d381acc5bc3d61e3a7966c55bd62")
	checkDigest(t, "Tournament trace", jsonl, "117f6a161daf8b55d0aed43884e5e1a46d66d524db8a9f2abfc2f8a2d58809ea")
}

// FailoverSweep is the one experiment that runs an injector-armed
// client through the fleet controller; its digests pin the render, the
// merged metrics JSON, the flight-recorder JSONL and the tsdb dump.
func TestFailoverSweepPinned(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	render, metrics, jsonl := instrumented(t, Opts{Seed: 1, Runs: 2, TSDB: db}, func(o Opts) (string, error) {
		res, err := FailoverSweep(o)
		return res.Render(), err
	})
	checkDigest(t, "FailoverSweep render", render, "cb8269b9cc0afe9332bddb6165fc249231ff5b95973768170aba7f77ac515c58")
	checkDigest(t, "FailoverSweep metrics", metrics, "7b79c69e5737e27a46a0bc301b864aa9b1eaf8f693561f93d1d9e05ee359c970")
	checkDigest(t, "FailoverSweep trace", jsonl, "8b1c0a6fdab10cd23ec09f5ccd5f6fdb6d7da3c52294e8f3bf36667accad69fd")
	checkDigest(t, "FailoverSweep tsdb", db.DumpJSONL(), "1c98118cd0997e6b89f6d1aff763b557ff3ee6170f270de45c5b28d5fb043f23")
}
