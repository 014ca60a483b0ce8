package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs/event"
)

// tracedFailover runs the seeded chaos failover — two regions, the
// home region armed with a forced outage — with the given recorder.
func tracedFailover(t *testing.T, rec *event.Recorder) fleet.Report {
	t.Helper()
	rep, _, err := failoverRun(2, 1.0, 11, 0, 63, nil, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFailoverTraceDeterminism is the PR's acceptance contract: one
// seed, one byte sequence. The same seeded chaos failover traced twice
// must export byte-identical JSONL and Chrome-trace files, and the
// recorder must not perturb the run it is observing.
func TestFailoverTraceDeterminism(t *testing.T) {
	r1 := event.NewRecorder()
	r2 := event.NewRecorder()
	repA := tracedFailover(t, r1)
	repB := tracedFailover(t, r2)
	repPlain := tracedFailover(t, nil)

	if !reflect.DeepEqual(repA, repB) {
		t.Fatal("two identically seeded traced runs returned different reports")
	}
	if !reflect.DeepEqual(repA, repPlain) {
		t.Fatal("tracing perturbed the run: traced report differs from untraced")
	}
	if r1.Len() == 0 || len(r1.Spans()) == 0 {
		t.Fatalf("empty trace: %d events, %d spans", r1.Len(), len(r1.Spans()))
	}

	for _, f := range []struct {
		name  string
		write func(*event.Recorder, *bytes.Buffer) error
	}{
		{"jsonl", func(r *event.Recorder, b *bytes.Buffer) error { return r.WriteJSONL(b) }},
		{"chrome", func(r *event.Recorder, b *bytes.Buffer) error { return r.WriteChromeTrace(b) }},
	} {
		var a, b bytes.Buffer
		if err := f.write(r1, &a); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if err := f.write(r2, &b); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if a.Len() == 0 {
			t.Fatalf("%s: empty export", f.name)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: exports of two identically seeded runs differ", f.name)
		}
	}
}

// TestSweepTracePolicy: a parallel sweep given a recorder confines it
// to repetition 0, so the trace is deterministic regardless of
// goroutine interleaving — and the sweep's numbers are unchanged.
func TestSweepTracePolicy(t *testing.T) {
	rec := event.NewRecorder()
	traced, err := ChaosSweep(Opts{Seed: 5, Runs: 2, Days: 63, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ChaosSweep(Opts{Seed: 5, Runs: 2, Days: 63})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Fatal("tracing perturbed the sweep result")
	}
	if rec.Len() == 0 {
		t.Fatal("sweep emitted no events")
	}

	rec2 := event.NewRecorder()
	if _, err := ChaosSweep(Opts{Seed: 5, Runs: 2, Days: 63, Trace: rec2}); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rec.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("parallel sweep trace is not deterministic across identical runs")
	}
}
