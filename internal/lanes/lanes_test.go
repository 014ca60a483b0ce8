package lanes

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// testConfig is small enough for the replay oracle (every lane walked
// through the real region) yet exercises every kernel path: one-time
// failures, persistent interruptions with recovery, under-bidders that
// idle past the horizon, and completions.
func testConfig() Config {
	return Config{
		Types:      []instances.Type{instances.R3XLarge, instances.R32XL},
		Lanes:      64,
		Days:       5,
		Seed:       11,
		Exec:       timeslot.Hours(20),
		Recovery:   timeslot.Hours(1),
		Window:     timeslot.Hours(48),
		QuoteEvery: 96,
	}
}

// TestLaneMatchesJobRun is the ground-truth oracle: every lane of the
// batch engine is replayed through the real substrate — trace →
// cloud.Region → job.Tracker → job.Run — and the lane's Outcome must
// be reflect.DeepEqual (hence bit-identical floats) to the tracker's.
func TestLaneMatchesJobRun(t *testing.T) {
	cfg := testConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var done, failed, interrupted int
	for i := 0; i < e.N(); i++ {
		got := checkLaneOracle(t, cfg, e, i)
		if got.Completed {
			done++
		}
		if e.status[i] == laneFailed {
			failed++
		}
		if got.Interruptions > 0 {
			interrupted++
		}
	}
	// The config must actually exercise the interesting kernel paths;
	// an all-completed or all-idle fleet would vacuously pass.
	if done == 0 || failed == 0 || interrupted == 0 {
		t.Fatalf("degenerate fleet: done=%d failed=%d interrupted=%d — tune testConfig", done, failed, interrupted)
	}
}

// checkLaneOracle replays lane i of a finished engine through a fresh
// cloud.Region + job.Run with the lane's market, kind, submission slot
// and bid, fails the test unless the two Outcomes are
// reflect.DeepEqual, and returns the lane's Outcome.
func checkLaneOracle(t *testing.T, cfg Config, e *Engine, i int) job.Outcome {
	t.Helper()
	mi := int(e.market[i])
	typ := e.markets[mi].typ
	tr, err := trace.Generate(typ, trace.GenOptions{
		Days: cfg.Days,
		Seed: cfg.Seed + int64(mi)*1009,
	})
	if err != nil {
		t.Fatal(err)
	}
	region, err := cloud.NewRegion(tr)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < int(e.start[i]); s++ {
		if err := region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	kind := cloud.OneTime
	if e.kind[i] == KindPersistent {
		kind = cloud.Persistent
	}
	tk, err := job.NewSpotJob(region, nil, job.Spec{
		ID:       fmt.Sprintf("lane-%d", i),
		Type:     typ,
		Exec:     cfg.Exec,
		Recovery: cfg.Recovery,
	}, e.bid[i], kind)
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(region, tk)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Outcome(i)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lane %d (%s %s bid %.6f start %d): outcome diverged\nlanes: %+v\njob:   %+v",
			i, typ, kindName(e.kind[i]), e.bid[i], e.start[i], got, want)
	}
	return got
}

// TestBidEqualToPrice pins the tie semantics the kernel's stretch
// loops split on: a request launches when bid ≥ price and is out-bid
// only when bid < price, so a bid exactly equal to the price launches
// and keeps running. The jittered bids of testConfig never tie, so
// each lane's bid is overwritten with the trace price at one of its
// first three observed slots (lane i takes slot i mod 3); the price
// regimes then tie the lane on many slots, both at launch and
// mid-stretch. In both traversal orders — Run's long ranges and Tick's
// one-slot calls, which enter the kernel with the instance already up
// — every lane must still match the region + tracker replay bit for
// bit.
func TestBidEqualToPrice(t *testing.T) {
	cfg := testConfig()
	for _, tick := range []bool{false, true} {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < e.N(); i++ {
			e.bid[i] = e.markets[e.market[i]].prices[int(e.start[i])+1+i%3]
		}
		if tick {
			tickToEnd(t, e)
		} else if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var ties, running int
		for i := 0; i < e.N(); i++ {
			out := checkLaneOracle(t, cfg, e, i)
			last := e.Slot()
			if st := e.status[i]; st == laneDone || st == laneFailed {
				last = int(e.finish[i])
			}
			for _, p := range e.markets[e.market[i]].prices[e.start[i]+1 : last+1] {
				if p == e.bid[i] {
					ties++
				}
			}
			if out.RunTime > 0 {
				running++
			}
		}
		t.Logf("tick=%v: %d lanes tie with the price on %d slots; %d of them ran", tick, e.N(), ties, running)
		// Vacuity guard: the ties must outnumber the lanes (so some
		// fall inside a running stretch, not only at a launch), and the
		// lanes must have run.
		if ties <= e.N() || running == 0 {
			t.Fatalf("degenerate tie fleet: %d ties over %d lanes, %d ran — tune the overwrite", ties, e.N(), running)
		}
	}
}

// tickToEnd settles every remaining slot of e slot-major.
func tickToEnd(t testing.TB, e *Engine) {
	t.Helper()
	for {
		if err := e.Tick(); err != nil {
			if err == ErrEndOfTrace {
				return
			}
			t.Fatal(err)
		}
	}
}

// fleetBytes runs a fresh engine to completion and returns every
// observable byte stream: the rendered table, the JSON report, and the
// per-lane JSONL.
func fleetBytes(t testing.TB, cfg Config, tick bool) (render string, jsonRep, jsonl []byte) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rep *Report
	if tick {
		tickToEnd(t, e)
		rep = e.Report()
	} else {
		rep, err = e.Run()
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return rep.Render(), rep.JSON(), buf.Bytes()
}

// TestTickEquivalentToRun pins the traversal-order contract: advancing
// the fleet slot-major (Tick), lane-major (Run), or k Ticks followed by
// a Run must produce byte-identical reports and lane records. The
// resume points cut a lane inside a waiting stretch, inside a running
// stretch (also one still paying recovery), at a lane's submission
// slot and one slot before the horizon, so a kernel that dropped a
// lane field between calls or mishandled its range start would
// diverge.
func TestTickEquivalentToRun(t *testing.T) {
	cfg := testConfig()
	r1, j1, l1 := fleetBytes(t, cfg, true)
	r2, j2, l2 := fleetBytes(t, cfg, false)
	if r1 != r2 {
		t.Errorf("Render diverged between Tick and Run:\n%s\nvs\n%s", r1, r2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON diverged between Tick and Run")
	}
	if !bytes.Equal(l1, l2) {
		t.Errorf("JSONL diverged between Tick and Run")
	}

	points := resumePoints(t, cfg)
	for _, c := range []string{
		"inside a waiting stretch",
		"inside a running stretch",
		"inside a running stretch, recovery pending",
		"at a lane's start slot",
		"near the horizon",
	} {
		k, ok := points[c]
		if !ok {
			t.Errorf("%s: no resume point in testConfig's fleet", c)
			continue
		}
		t.Logf("%s: Tick %d slots, then Run", c, k)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < k; n++ {
			if err := e.Tick(); err != nil {
				t.Fatalf("%s: Tick %d: %v", c, n+1, err)
			}
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var jsonl bytes.Buffer
		if err := e.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep.JSON(), j2) {
			t.Errorf("%s (Tick %d slots, then Run): JSON diverged from a plain Run", c, k)
		}
		if !bytes.Equal(jsonl.Bytes(), l2) {
			t.Errorf("%s (Tick %d slots, then Run): JSONL diverged from a plain Run", c, k)
		}
	}
}

// resumePoints ticks a fleet through its trace and returns, per case,
// the first tick count k after which some lane is in that state and
// stays in it through slot k+1, so a Run resumed after k Ticks picks
// the lane up mid-stretch.
func resumePoints(t *testing.T, cfg Config) map[string]int {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]int{
		"at a lane's start slot": int(e.start[0]),
		"near the horizon":       e.Horizon() - 2,
	}
	for e.Slot()+2 < e.Horizon() {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		k := e.Slot()
		for i := 0; i < e.N(); i++ {
			if k <= int(e.start[i]) {
				continue
			}
			next := e.markets[e.market[i]].prices[k+1]
			var c string
			switch st := e.status[i]; {
			case (st == laneIdle || st == lanePending) && e.bid[i] < next:
				c = "inside a waiting stretch"
			case st == laneRunning && e.bid[i] >= next && e.pendingRec[i] > 0:
				c = "inside a running stretch, recovery pending"
			case st == laneRunning && e.bid[i] >= next:
				c = "inside a running stretch"
			default:
				continue
			}
			if _, ok := points[c]; !ok {
				points[c] = k
			}
		}
	}
	return points
}

// TestReferenceEquivalence pins the SoA engine against its
// array-of-structs twin: same config, byte-identical report. The twin
// recomputes every quote from a fresh ECDF snapshot, so this also
// re-proves the live-window quote grid equals the legacy rebuild.
func TestReferenceEquivalence(t *testing.T) {
	cfg := testConfig()
	render, jsonRep, _ := fleetBytes(t, cfg, false)
	ref, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.Render(); got != render {
		t.Errorf("reference Render diverged:\n%s\nvs\n%s", got, render)
	}
	if got := ref.JSON(); !bytes.Equal(got, jsonRep) {
		t.Errorf("reference JSON diverged:\n%s\nvs\n%s", got, jsonRep)
	}
}

// TestDeterminismMatrix is the GOMAXPROCS sweep of the acceptance
// criteria: every observable byte stream must be identical at 1, 2,
// and NumCPU workers, in both traversal orders. Shard boundaries move
// with the worker count, so this catches any leak of schedule into
// state — a shared RNG, a racy reduction, an order-dependent append.
func TestDeterminismMatrix(t *testing.T) {
	cfg := testConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2, runtime.NumCPU()}
	var baseR string
	var baseJ, baseL []byte
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		for _, tick := range []bool{false, true} {
			render, jsonRep, jsonl := fleetBytes(t, cfg, tick)
			if baseJ == nil {
				baseR, baseJ, baseL = render, jsonRep, jsonl
				continue
			}
			if render != baseR || !bytes.Equal(jsonRep, baseJ) || !bytes.Equal(jsonl, baseL) {
				t.Fatalf("GOMAXPROCS=%d tick=%v: fleet bytes diverged from baseline", p, tick)
			}
		}
	}
}

// TestConfigValidation covers the rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                    // no types
		{Types: testConfig().Types},           // no lanes / exec
		{Types: testConfig().Types, Lanes: 1}, // no exec
		{Types: testConfig().Types, Lanes: 1, Exec: 10, Days: 1, QuoteEvery: 288}, // horizon too short
		{Types: testConfig().Types, Lanes: 1, Exec: 10, Recovery: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted invalid config %+v", i, cfg)
		}
	}
}

// benchConfig sizes the in-package benchmark: big enough that the
// per-slot kernel dominates, small enough for -bench on one core.
func benchConfig(lanes int) Config {
	cfg := testConfig()
	cfg.Lanes = lanes
	return cfg
}

// BenchmarkFleetRun measures the SoA engine end to end (market build +
// lane-major run). State is rebuilt every iteration — nothing carries
// over between runs except the memoized trace, which is exactly what
// production reuse looks like.
func BenchmarkFleetRun(b *testing.B) {
	cfg := benchConfig(512)
	trace.ResetMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetReference measures the legacy per-client machinery
// (region + tracker sweep + snapshot quotes) at the same scale — the
// lanes.fleet speedup in cmd/perfgate is the ratio of these two.
func BenchmarkFleetReference(b *testing.B) {
	cfg := benchConfig(512)
	trace.ResetMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReference(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
