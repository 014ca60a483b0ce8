package lanes

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
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
	auditLanes(t, e)
	// The oracle replays each lane over its engine market's prices, so
	// first pin those to the generator's series for the market's seed.
	for mi, m := range e.markets {
		tr, err := trace.Generate(m.typ, trace.GenOptions{Days: cfg.Days, Seed: cfg.Seed + int64(mi)*1009})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.prices, tr.Prices) {
			t.Fatalf("market %d (%s): prices differ from the generated trace", mi, m.typ)
		}
	}
	var done, failed, interrupted int
	for i := 0; i < e.N(); i++ {
		got := checkLaneOracle(t, e, i, cfg.Exec, cfg.Recovery)
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
// cloud.Region + job.Run over the lane's market prices, with the
// lane's kind, submission slot and bid and the given execution and
// recovery times, fails the test unless the two Outcomes are
// reflect.DeepEqual, and returns the lane's Outcome.
func checkLaneOracle(t *testing.T, e *Engine, i int, exec, recovery timeslot.Hours) job.Outcome {
	t.Helper()
	m := e.markets[e.market[i]]
	tr, err := trace.New(m.typ, timeslot.NewGrid(timeslot.DefaultSlot), m.prices)
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
		Type:     m.typ,
		Exec:     exec,
		Recovery: recovery,
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
		t.Fatalf("lane %d (%s %s bid %.6f start %d recovery %v): outcome diverged\nlanes: %+v\njob:   %+v",
			i, m.typ, kindName(e.kind[i]), e.bid[i], e.start[i], float64(recovery), got, want)
	}
	return got
}

// auditLanes checks every lane of a settled engine against identities
// that follow from the lane kernel's transitions alone, with no second
// simulation to compare against:
//
//   - Slot accounting. An open request launches when bid ≥ price and a
//     running instance is out-bid when bid < price, so a lane's run
//     slots are exactly its observed slots priced at or below its bid,
//     and its idle slots the ones priced above it, less a failed lane's
//     out-bid slot, which is neither. A lane observes the slots after
//     its start up to its finish if it is done or failed, and up to the
//     last settled slot if it is live.
//   - Done. A done lane owes no work or recovery, holds no open
//     instance bill, and finished after its start.
//   - Failed. A failed lane is one-time, was interrupted exactly once,
//     holds no open bill, and finished after its start.
//   - Live. A live lane has finish −1 and still owes work; a live
//     one-time lane was never interrupted. Its status agrees with its
//     instance: pending never launched, running is up, idle launched
//     and is down.
//   - Recovery. Every interruption but a pending one was restored, and
//     the recovery hours are t_r summed once per restore.
//   - Billing, exactly. Each maximal run of observed slots at or below
//     the bid is one instance, billed its prices times slot hours,
//     summed from zero in slot order; the instance's bill folds into
//     the lane's cost when the run closes, in launch order. So a live
//     lane's cost is bit for bit its closed runs folded in order and
//     its open bill is the open run; a done or failed lane's cost is
//     all of its runs folded in order and its open bill is 0.
func auditLanes(t testing.TB, e *Engine) {
	t.Helper()
	dt := e.slotHours
	for i := 0; i < e.N(); i++ {
		st, start, finish := e.status[i], int(e.start[i]), int(e.finish[i])
		runSlots, idleSlots, intr := int(e.runSlots[i]), int(e.idleSlots[i]), int(e.intr[i])
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("lane %d (%s, status %d, start %d, finish %d, run %d, idle %d, interruptions %d): "+format,
				append([]any{i, kindName(e.kind[i]), st, start, finish, runSlots, idleSlots, intr}, args...)...)
		}

		end, outBid := e.slot, 0
		switch st {
		case laneDone:
			end = finish
			if e.remaining[i] != 0 || e.pendingRec[i] != 0 || e.instCost[i] != 0 {
				fail("done, but owes work %v and recovery %v, open bill %v", e.remaining[i], e.pendingRec[i], e.instCost[i])
			}
		case laneFailed:
			end, outBid = finish, 1
			if e.kind[i] != KindOneTime || intr != 1 || e.instCost[i] != 0 {
				fail("failed, but not a once-interrupted one-time lane with no open bill (open bill %v)", e.instCost[i])
			}
		default:
			if finish != -1 || !(e.remaining[i] > 1e-12) {
				fail("live, but finished or owes no work (remaining %v)", e.remaining[i])
			}
			if e.kind[i] == KindOneTime && intr != 0 {
				fail("a live one-time lane was interrupted")
			}
			if up, begun := e.active[i], e.begun[i]; st == lanePending && (up || begun) ||
				st == laneRunning && !up || st == laneIdle && (up || !begun) {
				fail("status disagrees with the instance (up %v, launched %v)", up, begun)
			}
		}
		if finish != -1 && finish <= start {
			fail("finished at or before its start")
		}

		var atOrBelow, above int
		var closed, open float64 // runs folded in launch order; the open run's bill
		for _, p := range e.markets[e.market[i]].prices[min(start+1, end+1) : end+1] {
			if e.bid[i] >= p {
				atOrBelow++
				open += p * dt
			} else {
				above++
				closed, open = closed+open, 0 // a run closes; adding 0 is exact
			}
		}
		if runSlots != atOrBelow || idleSlots+outBid != above {
			fail("observed %d slots at or below the bid and %d above", atOrBelow, above)
		}
		if e.begun[i] != (runSlots > 0) {
			fail("launched %v with %d run slots", e.begun[i], runSlots)
		}

		restores := intr
		if e.restore[i] {
			restores--
		}
		var recovery float64
		for r := 0; r < restores; r++ {
			recovery += e.recovery[i]
		}
		if restores < 0 || e.recHours[i] != recovery {
			fail("%d restores at t_r %v, but %v recovery hours", restores, e.recovery[i], e.recHours[i])
		}

		if st == laneDone || st == laneFailed {
			closed, open = closed+open, 0
		}
		if math.Float64bits(e.cost[i]) != math.Float64bits(closed) || math.Float64bits(e.instCost[i]) != math.Float64bits(open) {
			fail("billed %v closed and %v open, run slots priced %v closed and %v open", e.cost[i], e.instCost[i], closed, open)
		}
	}
}

// TestMixedRecoveryLanesMatchJobRun extends the oracle to lanes built
// explicitly with NewEngine, where every lane carries its own recovery
// and execution time. testConfig's fleet supplies the markets, bids and
// start slots; the kind is re-derived from i/2 so both kinds run in
// both markets, and five recoveries (none up to three hours) alternate
// across neighbouring lanes of one engine, so a kernel that read
// recovery from anywhere but its own lane would diverge. Seven
// execution times alternate too: whole numbers of slots; 7 seconds past
// and 7 seconds short of a slot boundary, so the last slot's work is a
// sliver or nearly a whole slot; and 200 and 1,000 hours, past the
// 120-hour horizon, so the bulk loop runs to the end of the range.
func TestMixedRecoveryLanesMatchJobRun(t *testing.T) {
	cfg := testConfig()
	fleet, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recoveries := []timeslot.Hours{0, timeslot.Seconds(10), timeslot.Seconds(30), 1, 3}
	execs := []timeslot.Hours{cfg.Exec, cfg.Exec + 1, cfg.Exec + 2,
		cfg.Exec + timeslot.Seconds(7), cfg.Exec + 1 + timeslot.Seconds(293), 200, 1000}
	markets := make([]Market, len(fleet.markets))
	for mi, m := range fleet.markets {
		markets[mi] = Market{Type: m.typ, Prices: m.prices}
	}
	ls := make([]Lane, fleet.N())
	for i := range ls {
		ls[i] = Lane{
			Market:   int(fleet.market[i]),
			Kind:     uint8(i / 2 % 2),
			Bid:      fleet.bid[i],
			Start:    int(fleet.start[i]),
			Exec:     execs[i%len(execs)],
			Recovery: recoveries[i%len(recoveries)],
		}
	}
	e, err := NewEngine(markets, ls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	auditLanes(t, e)
	restored := map[timeslot.Hours]int{}
	cohorts := map[[2]int]bool{}
	done := map[timeslot.Hours]int{}
	running := 0
	for i, l := range ls {
		out := checkLaneOracle(t, e, i, l.Exec, l.Recovery)
		cohorts[[2]int{l.Market, int(l.Kind)}] = true
		if out.RecoveryTime > 0 {
			restored[l.Recovery]++
		}
		if out.Completed {
			done[l.Exec]++
		}
		if e.status[i] == laneRunning {
			running++
		}
	}
	t.Logf("completed by t_s %v; %d lanes running at the horizon", done, running)
	// Vacuity guard: every (market, kind) cohort must be present, lanes
	// with at least three distinct non-zero recoveries must have paid a
	// restore, each of the five t_s shorter than the horizon must have
	// completed on some lane, and some lane must still be running at the
	// horizon.
	if len(cohorts) != 2*len(markets) || len(restored) < 3 || len(done) != 5 || running == 0 {
		t.Fatalf("degenerate mixed fleet: cohorts %v, restores by recovery %v, completions by t_s %v, %d running at the horizon — tune the lane derivation",
			cohorts, restored, done, running)
	}
}

// firstDone returns the first slot at which the kernel's work chain —
// remaining -= dt, then the 1e-12 completion test — completes a job
// that owes r hours and no recovery.
func firstDone(r, dt float64) int {
	for k := 1; ; k++ {
		if r -= dt; r <= 1e-12 {
			return k
		}
	}
}

// TestBulkSlotsBound pins bulkSlots against the arithmetic it bounds.
// For every input the bulk must stop before the first slot that
// completes the job, so the per-slot body always settles completion;
// and a non-zero bound must be at most four slots short of it, so the
// bulk covers all but a stretch's last few slots. Inputs: whole numbers
// of slots up to 200 hours with four float neighbours on each side and
// a picosecond off, 10⁵ log-uniform works in [10⁻¹², 10⁴] hours from a
// fixed seed, and the t_s of the tests and benchmarks. Then the range
// handling: no bound below bulkMinSlots slots left, none for a NaN,
// infinite or non-positive work, and every slot left for a work no
// such short range can finish, however large.
func TestBulkSlotsBound(t *testing.T) {
	dt := float64(timeslot.DefaultSlot)
	const noClamp = 1 << 30 // slots left: more than any input needs
	var inputs []float64
	for m := 1; m <= 2400; m++ {
		r := float64(m) * dt
		inputs = append(inputs, r, r-1e-12, r+1e-12)
		lo, hi := r, r
		for j := 0; j < 4; j++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			inputs = append(inputs, lo, hi)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for j := 0; j < 100_000; j++ {
		inputs = append(inputs, math.Exp(math.Log(1e-12)+rng.Float64()*math.Log(1e16)))
	}
	inputs = append(inputs, 1, 20, 24, 200, 8760)

	short := map[int]int{} // first done − bound → inputs, non-zero bounds
	for _, r := range inputs {
		k, done := bulkSlots(r, dt, noClamp), firstDone(r, dt)
		if k < 0 || k >= done || k > 0 && k < done-4 {
			t.Fatalf("work %v (%x): bound %d, first done at slot %d", r, math.Float64bits(r), k, done)
		}
		if k > 0 {
			short[done-k]++
		}
	}
	t.Logf("%d inputs; first done − bound over the non-zero bounds: %v", len(inputs), short)
	if len(short) == 0 {
		t.Fatal("no input had a non-zero bound")
	}

	for _, r := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e15, 1e300, 200, 0, -1} {
		for left := -1; left <= bulkMinSlots+4; left++ {
			want := left
			if left < bulkMinSlots || math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
				want = 0
			}
			if k := bulkSlots(r, dt, left); k != want {
				t.Errorf("work %v, %d slots left: bound %d, want %d", r, left, k, want)
			}
		}
	}
}

// FuzzBulkSlots runs bulkSlots on raw bit patterns of the work and the
// slots left: the bound must never panic, stay within [0, left], be 0
// for a non-finite work, and never reach a completing slot of the
// kernel's work chain.
func FuzzBulkSlots(f *testing.F) {
	for _, seed := range []struct {
		r    float64
		left int64
	}{{200, 20_000}, {1, 100}, {20 + 7.0/3600, 1 << 20}, {1e300, 9}, {math.Inf(1), 1 << 40}, {0.25, 8}} {
		f.Add(math.Float64bits(seed.r), seed.left)
	}
	dt := float64(timeslot.DefaultSlot)
	f.Fuzz(func(t *testing.T, bits uint64, left64 int64) {
		r, left := math.Float64frombits(bits), int(left64)
		k := bulkSlots(r, dt, left)
		if k < 0 || k > max(left, 0) || k > 0 && (math.IsNaN(r) || math.IsInf(r, 0)) {
			t.Fatalf("work %v, %d slots left: bound %d", r, left, k)
		}
		if k > 1<<16 {
			return // too long to walk; TestBulkSlotsBound walks long stretches
		}
		for j := 1; j <= k; j++ {
			if r -= dt; r <= 1e-12 {
				t.Fatalf("work %v, %d slots left: bound %d, but slot %d completes", math.Float64frombits(bits), left, k, j)
			}
		}
	})
}

// TestNewEngineValidation covers the explicit constructor's rejection
// paths, one bad field per lane.
func TestNewEngineValidation(t *testing.T) {
	markets := []Market{{Type: instances.R3XLarge, Prices: []float64{0.1, 0.2, 0.3}}}
	good := Lane{Market: 0, Kind: KindPersistent, Bid: 0.2, Start: 0, Exec: 1, Recovery: 0.1}
	if _, err := NewEngine(markets, []Lane{good}); err != nil {
		t.Fatalf("NewEngine rejected a valid lane: %v", err)
	}
	bad := map[string]func(l *Lane){
		"market out of range": func(l *Lane) { l.Market = 1 },
		"unknown kind":        func(l *Lane) { l.Kind = 2 },
		"zero bid":            func(l *Lane) { l.Bid = 0 },
		"NaN bid":             func(l *Lane) { l.Bid = math.NaN() },
		"start past horizon":  func(l *Lane) { l.Start = 3 },
		"negative start":      func(l *Lane) { l.Start = -1 },
		"zero exec":           func(l *Lane) { l.Exec = 0 },
		"negative recovery":   func(l *Lane) { l.Recovery = -1 },
	}
	for name, mutate := range bad {
		l := good
		mutate(&l)
		if _, err := NewEngine(markets, []Lane{l}); err == nil {
			t.Errorf("%s: NewEngine accepted %+v", name, l)
		}
	}
	uneven := append(markets, Market{Type: instances.R32XL, Prices: []float64{0.1}})
	if _, err := NewEngine(uneven, []Lane{good}); err == nil {
		t.Error("NewEngine accepted markets of different lengths")
	}
	if _, err := NewEngine([]Market{{Type: "no-such-type", Prices: []float64{0.1}}}, []Lane{good}); err == nil {
		t.Error("NewEngine accepted an unknown instance type")
	}
	if _, err := NewEngine(markets, nil); err == nil {
		t.Error("NewEngine accepted no lanes")
	}
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
		auditLanes(t, e)
		var ties, running int
		for i := 0; i < e.N(); i++ {
			out := checkLaneOracle(t, e, i, cfg.Exec, cfg.Recovery)
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
	auditLanes(t, e)
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
// re-proves the live-window quote grid equals the legacy rebuild. It
// runs at the test window and at a 1e300-hour window, more slots than
// an int holds, which both engines must read as the whole horizon.
func TestReferenceEquivalence(t *testing.T) {
	for _, window := range []timeslot.Hours{testConfig().Window, 1e300} {
		cfg := testConfig()
		cfg.Window = window
		render, jsonRep, _ := fleetBytes(t, cfg, false)
		ref, err := RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ref.Render(); got != render {
			t.Errorf("window %v h: reference Render diverged:\n%s\nvs\n%s", float64(window), got, render)
		}
		if got := ref.JSON(); !bytes.Equal(got, jsonRep) {
			t.Errorf("window %v h: reference JSON diverged:\n%s\nvs\n%s", float64(window), got, jsonRep)
		}
	}
}

// TestQuoteGridMatchesSnapshots proves the live-window quote grid
// directly. The first shape is cmd/perfgate's fleetConfig: two markets,
// 61 days, a 240-hour window and daily quotes. The others, with fewer
// lanes, vary what buildMarket slides into its window per epoch:
// i.i.d. prices (DwellSlots 1, so no runs), the default 61-day window
// (capacity = horizon, never evicting), a stride that does not divide
// the window (QuoteEvery 100), and epochs longer than a 4-hour window
// (every batch replaces the window). At every quote epoch, the grid's
// one-time and persistent quotes must equal OneTimeBid and
// PersistentBid on a fresh NewEmpirical of the window's live samples at
// that slot, bit for bit, and every lane New builds must bid its
// epoch's snapshot quote times its spread.
func TestQuoteGridMatchesSnapshots(t *testing.T) {
	fleet := Config{
		Types:      []instances.Type{instances.R3XLarge, instances.C34XL},
		Lanes:      10_000,
		Days:       61,
		Seed:       1,
		Exec:       timeslot.Hours(200),
		Recovery:   timeslot.Hours(1),
		Window:     timeslot.Hours(240),
		QuoteEvery: 288,
	}
	shapes := []struct {
		name string
		mod  func(c *Config)
	}{
		{"fleetConfig", func(c *Config) {}},
		{"i.i.d. prices", func(c *Config) { c.DwellSlots = 1 }},
		{"default 61-day window", func(c *Config) { c.Window = 0 }},
		{"stride 100", func(c *Config) { c.QuoteEvery = 100 }},
		{"epochs longer than the window", func(c *Config) { c.Window, c.QuoteEvery = 4, 96 }},
	}
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	for i, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := fleet
			if i > 0 {
				cfg.Lanes = 500
			}
			sh.mod(&cfg)
			cfg = cfg.withDefaults()
			horizon := cfg.Days * int(grid.SlotsPerHour()) * 24
			capacity := min(grid.CeilSlots(cfg.Window), horizon)
			job := core.Job{Exec: cfg.Exec, Recovery: cfg.Recovery}
			snapshots := make([][]quote, len(cfg.Types))
			for mi, typ := range cfg.Types {
				m, quotes, err := buildMarket(cfg, mi, typ, grid, horizon)
				if err != nil {
					t.Fatal(err)
				}
				if want := (horizon-1)/cfg.QuoteEvery + 1; len(quotes) != want {
					t.Fatalf("%s: %d quote epochs, want %d", typ, len(quotes), want)
				}
				for epoch, q := range quotes {
					s := epoch * cfg.QuoteEvery
					est, err := dist.NewEmpirical(m.Prices[max(s+1-capacity, 0):s+1], 0)
					if err != nil {
						t.Fatal(err)
					}
					mkt := core.Market{Price: est, OnDemand: instances.MustLookup(typ).OnDemand, Slot: grid.Slot}
					ot, err := mkt.OneTimeBid(job)
					if err != nil {
						t.Fatal(err)
					}
					pb, err := mkt.PersistentBid(job)
					if err != nil {
						t.Fatal(err)
					}
					want := quote{oneTime: ot.Price, persistent: pb.Price}
					if math.Float64bits(q.oneTime) != math.Float64bits(want.oneTime) ||
						math.Float64bits(q.persistent) != math.Float64bits(want.persistent) {
						t.Fatalf("%s epoch %d (slot %d): grid quotes %+v, snapshot %+v", typ, epoch, s, q, want)
					}
					snapshots[mi] = append(snapshots[mi], want)
				}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			maxStagger := horizon/2 - cfg.QuoteEvery
			for i := 0; i < e.N(); i++ {
				mi, kind, start, bidF := laneParams(cfg, i, maxStagger, len(cfg.Types))
				q := snapshots[mi][start/cfg.QuoteEvery]
				base := q.oneTime
				if kind == KindPersistent {
					base = q.persistent
				}
				if want := base * bidF; math.Float64bits(e.bid[i]) != math.Float64bits(want) {
					t.Fatalf("lane %d: bid %v, snapshot quote × spread %v", i, e.bid[i], want)
				}
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			auditLanes(t, e)
		})
	}
}

// TestDeterminismMatrix is the GOMAXPROCS sweep of the acceptance
// criteria: every observable byte stream must be identical at 1, 2,
// NumCPU and 8 workers, in both traversal orders. Shard boundaries
// move with the worker count, so this catches any leak of schedule
// into state — a shared RNG, a racy reduction, an order-dependent
// append. 8 oversubscribes a small machine, where NumCPU may be 2.
func TestDeterminismMatrix(t *testing.T) {
	cfg := testConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2, runtime.NumCPU(), 8}
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

// TestConfigValidation covers the rejection paths. A non-finite t_s,
// t_r or window must be rejected with an error naming the field: an
// infinite or NaN window used to reach the slot-count conversion and
// silently become a one-slot window, and a NaN t_r a misleading quote
// error.
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

	nonFinite := []struct {
		field string
		mod   func(c *Config, v timeslot.Hours)
	}{
		{"Exec", func(c *Config, v timeslot.Hours) { c.Exec = v }},
		{"Recovery", func(c *Config, v timeslot.Hours) { c.Recovery = v }},
		{"Window", func(c *Config, v timeslot.Hours) { c.Window = v }},
	}
	for _, f := range nonFinite {
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			cfg := testConfig()
			f.mod(&cfg, timeslot.Hours(v))
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), f.field) {
				t.Errorf("%s = %v: New returned %v, want an error naming %s", f.field, v, err, f.field)
			}
		}
	}

	// A finite window longer than the horizon reads the whole horizon,
	// however far it is past an int's range in slots.
	bids := func(window timeslot.Hours) []float64 {
		cfg := testConfig()
		cfg.Window = window
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.bid
	}
	if whole := bids(5 * 24); !reflect.DeepEqual(bids(1e9), whole) || !reflect.DeepEqual(bids(1e300), whole) {
		t.Error("a window past the horizon did not quote as a whole-horizon window")
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

// BenchmarkFleetTick is BenchmarkFleetRun driven slot-major: New, then
// one Tick per slot to the end of the trace, so every lane-slot goes
// through the kernel as a one-slot range.
func BenchmarkFleetTick(b *testing.B) {
	cfg := benchConfig(512)
	trace.ResetMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tickToEnd(b, e)
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
