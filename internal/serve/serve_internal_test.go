package serve

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
)

// testConfig is a small, fast server tuning shared by the unit tests:
// first build possible at slot 0, hourly ladder compressed to a few
// slots.
func testConfig() Config {
	return Config{
		Types:             []instances.Type{instances.R3XLarge},
		WindowSlots:       64,
		MinSamples:        2,
		RebuildEvery:      5,
		FreshForSlots:     3,
		StaleForSlots:     6,
		ExecGridHours:     []float64{1, 4},
		RecoveryGridHours: []float64{60.0 / 3600.0, 600.0 / 3600.0},
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feed pushes a deterministic price at the given slot and runs the
// build pipeline.
func feed(t *testing.T, s *Server, key Key, slot int) {
	t.Helper()
	s.SetSlot(slot)
	if err := s.Ingest(key, slot, 0.05+0.001*float64(slot%7)); err != nil {
		t.Fatal(err)
	}
	s.MaybeRebuild(slot)
}

// TestTierLadderTransitions walks the full ladder: cold → fresh →
// stale → refuse under a silent feed, then recovery back to fresh
// once data and builds resume.
func TestTierLadderTransitions(t *testing.T) {
	s := mustServer(t, testConfig())
	key := s.Keys()[0]
	req := QuoteRequest{Type: instances.R3XLarge, ExecHours: 2, NowMicros: 1}

	if _, out := s.Quote(req); out != OutcomeRefusedCold {
		t.Fatalf("cold server answered %v", out)
	}

	// Warm up through the first build at slot 5.
	for slot := 0; slot <= 5; slot++ {
		feed(t, s, key, slot)
	}
	if tbl := s.Table(key); tbl == nil || tbl.Version != 1 {
		t.Fatalf("expected table v1 after warm-up, got %+v", s.Table(key))
	}

	// The table's data is from slot 5. With FreshForSlots=3 and
	// StaleForSlots=6 the ladder flips at ages 4 and 7; the feed goes
	// silent so no rebuild interferes (no fresh data → no build).
	cases := []struct {
		slot int
		want Outcome
		tier Tier
	}{
		{6, OutcomeServedFresh, TierFresh},    // age 1
		{8, OutcomeServedFresh, TierFresh},    // age 3, boundary
		{9, OutcomeServedStale, TierStale},    // age 4
		{11, OutcomeServedStale, TierStale},   // age 6, boundary
		{12, OutcomeRefusedStale, TierRefuse}, // age 7
		{20, OutcomeRefusedStale, TierRefuse},
	}
	for _, c := range cases {
		s.SetSlot(c.slot)
		s.MaybeRebuild(c.slot) // must be a no-op: no fresh data
		resp, out := s.Quote(QuoteRequest{Type: instances.R3XLarge, ExecHours: 2, NowMicros: int64(c.slot) * 1000})
		if out != c.want {
			t.Fatalf("slot %d (age %d): outcome %v, want %v", c.slot, c.slot-5, out, c.want)
		}
		if out.Served() {
			if resp.AgeSlots != c.slot-5 {
				t.Fatalf("slot %d: reported age %d, want %d", c.slot, resp.AgeSlots, c.slot-5)
			}
			if resp.Tier != c.tier.String() {
				t.Fatalf("slot %d: tier %q, want %q", c.slot, resp.Tier, c.tier)
			}
			if (resp.Warning != "") != (c.tier == TierStale) {
				t.Fatalf("slot %d: warning %q inconsistent with tier %v", c.slot, resp.Warning, c.tier)
			}
		}
	}

	// Recovery: data resumes, the next cadence slot rebuilds, fresh
	// again with a higher version.
	for slot := 21; slot <= 25; slot++ {
		feed(t, s, key, slot)
	}
	resp, out := s.Quote(QuoteRequest{Type: instances.R3XLarge, ExecHours: 2, NowMicros: 26_000})
	if out != OutcomeServedFresh {
		t.Fatalf("after recovery: outcome %v", out)
	}
	if resp.Version != 2 {
		t.Fatalf("recovery table version %d, want 2", resp.Version)
	}
}

// TestDrainRefuses: after Drain every quote is refused and readiness
// goes false, without disturbing the conservation ledger.
func TestDrainRefuses(t *testing.T) {
	s := mustServer(t, testConfig())
	key := s.Keys()[0]
	for slot := 0; slot <= 5; slot++ {
		feed(t, s, key, slot)
	}
	s.Drain()
	if _, out := s.Quote(QuoteRequest{Type: instances.R3XLarge, ExecHours: 2, NowMicros: 1}); out != OutcomeRefusedDraining {
		t.Fatalf("draining server answered %v", out)
	}
	if h := s.Health(); h.Ready {
		t.Fatal("draining server reports ready")
	}
}

// TestAdmitterPriorityAndDeadline covers the token-bucket semantics:
// deadline-unmeetable requests shed immediately without spending
// tokens, higher classes borrow downward, lower classes cannot borrow
// up, and elapsed time refills.
func TestAdmitterPriorityAndDeadline(t *testing.T) {
	cfg, err := AdmitConfig{
		RatePerSec: [NumClasses]float64{1, 1, 1},
		Burst:      [NumClasses]float64{2, 2, 2},
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("deadline", func(t *testing.T) {
		a := NewAdmitter(cfg)
		if v := a.Admit(ClassInteractive, 1000, 1000+MinServiceMicros-1); v != ShedDeadline {
			t.Fatalf("unmeetable budget admitted: %v", v)
		}
		if tok := a.Tokens(); tok[ClassInteractive] != 2 {
			t.Fatalf("deadline shed spent a token: %v", tok)
		}
	})

	t.Run("borrow-down", func(t *testing.T) {
		a := NewAdmitter(cfg)
		deadline := int64(1_000_000)
		// Interactive drains its own 2, then standard's 2, then
		// batch's 2 — six admits, then capacity shed.
		for i := 0; i < 6; i++ {
			if v := a.Admit(ClassInteractive, 0, deadline); v != Admitted {
				t.Fatalf("admit %d: %v (tokens %v)", i, v, a.Tokens())
			}
		}
		if v := a.Admit(ClassInteractive, 0, deadline); v != ShedCapacity {
			t.Fatalf("7th interactive admit: %v", v)
		}
	})

	t.Run("no-borrow-up", func(t *testing.T) {
		a := NewAdmitter(cfg)
		deadline := int64(1_000_000)
		for i := 0; i < 2; i++ {
			if v := a.Admit(ClassBatch, 0, deadline); v != Admitted {
				t.Fatalf("batch admit %d: %v", i, v)
			}
		}
		if v := a.Admit(ClassBatch, 0, deadline); v != ShedCapacity {
			t.Fatalf("batch must not borrow upward: %v", v)
		}
		// Interactive capacity is untouched.
		if v := a.Admit(ClassInteractive, 0, deadline); v != Admitted {
			t.Fatalf("interactive starved by batch: %v", v)
		}
	})

	t.Run("refill", func(t *testing.T) {
		a := NewAdmitter(cfg)
		for i := 0; i < 2; i++ {
			a.Admit(ClassBatch, 0, 1_000_000)
		}
		if v := a.Admit(ClassBatch, 0, 1_000_000); v != ShedCapacity {
			t.Fatalf("bucket not empty: %v", v)
		}
		// One second at 1 token/s refills one batch token.
		if v := a.Admit(ClassBatch, 1_000_000, 3_000_000); v != Admitted {
			t.Fatalf("refill failed: %v (tokens %v)", v, a.Tokens())
		}
	})
}

// TestResolveRounding: job durations round up onto the grid, beyond-
// grid values clamp to the largest cell, and a recovery that rounds
// into its exec cell bumps the exec axis instead of serving an
// invalid cell.
func TestResolveRounding(t *testing.T) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 0.04 + 0.0005*float64(i)
	}
	snap, err := dist.NewEmpirical(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Region: "us-east-1", Type: instances.R3XLarge}
	execGrid := []float64{0.5, 1, 4}
	recGrid := []float64{60.0 / 3600.0, 0.5}
	tbl := buildTable(key, 0.35, snap, 1, 10, 10, execGrid, recGrid, timeslot.DefaultSlot)

	cases := []struct {
		name      string
		exec, rec float64
		wantExecI int
		wantRecJ  int
	}{
		{"exact cell", 1, 0, 1, -1},
		{"round exec up", 0.6, 0, 1, -1},
		{"clamp beyond grid", 40, 0, 2, -1},
		{"persistent exact", 4, 60.0 / 3600.0, 2, 0},
		{"round rec up", 4, 0.2, 2, 1},
		{"rec collides with exec, bump", 0.5, 0.4, 1, 1},
	}
	for _, c := range cases {
		q, execI, recJ := tbl.Resolve(c.exec, c.rec)
		if execI != c.wantExecI || recJ != c.wantRecJ {
			t.Errorf("%s: resolved cell (%d,%d), want (%d,%d)", c.name, execI, recJ, c.wantExecI, c.wantRecJ)
			continue
		}
		if !q.Feasible {
			t.Errorf("%s: clean market cell infeasible", c.name)
		}
		if !(q.Price > 0) || q.Price > 0.35 {
			t.Errorf("%s: price %v outside (0, π̄]", c.name, q.Price)
		}
	}
}

// TestSwapHammer races the lock-free read path against continuous
// rebuild/swap churn — run under -race (make race / race-obs) this is
// the atomic-swap safety proof; in any mode it asserts the readers
// only ever observe fully built, version-monotone tables.
func TestSwapHammer(t *testing.T) {
	cfg := testConfig()
	cfg.RebuildEvery = 1
	cfg.FreshForSlots = 1 << 20 // never degrade: isolate the swap path
	cfg.StaleForSlots = 1 << 21
	cfg.ExecGridHours = []float64{1}
	cfg.RecoveryGridHours = []float64{60.0 / 3600.0}
	// The hammer issues far more requests than logical time refills
	// tokens for; admission is not under test here.
	cfg.Admission = AdmitConfig{Burst: [NumClasses]float64{1 << 30, 1 << 30, 1 << 30}}
	s := mustServer(t, cfg)
	key := s.Keys()[0]

	const slots = 120
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastVersion uint64
			var now int64 = int64(g) * 7
			for {
				select {
				case <-done:
					return
				default:
				}
				now += 11
				resp, out := s.Quote(QuoteRequest{
					Type: instances.R3XLarge, ExecHours: 1, NowMicros: now})
				if !out.Served() {
					if out == OutcomeRefusedCold {
						continue
					}
					t.Errorf("reader %d: unexpected outcome %v", g, out)
					return
				}
				if resp.Version < lastVersion {
					t.Errorf("reader %d: version regressed %d → %d", g, lastVersion, resp.Version)
					return
				}
				lastVersion = resp.Version
				if !(resp.Quote.Price > 0) {
					t.Errorf("reader %d: served torn/empty quote %+v", g, resp.Quote)
					return
				}
			}
		}(g)
	}
	for slot := 0; slot < slots; slot++ {
		feed(t, s, key, slot)
	}
	close(done)
	wg.Wait()

	if tbl := s.Table(key); tbl == nil || tbl.Version < slots-5 {
		t.Fatalf("swap churn did not happen: %+v", tbl)
	}
}

// TestFeedBuildHammer races Ingest, MaybeRebuild, Quote and Health on
// their own goroutines over three markets due at every slot. While a
// slot's builds run, the feed keeps ingesting prices stamped with that
// slot; it moves on only when the builder acknowledges the slot, so
// every slot still builds every market. Run under -race (make race /
// race-obs) it is the safety proof for the backlog each market's feed
// and builder share; in any mode it asserts that readers see
// version-monotone tables and that no build is skipped.
func TestFeedBuildHammer(t *testing.T) {
	cfg := testConfig()
	cfg.Types = []instances.Type{instances.R3XLarge, instances.C34XL, instances.R32XL}
	cfg.RebuildEvery = 1
	cfg.FreshForSlots = 1 << 20 // never degrade: isolate the pipeline
	cfg.StaleForSlots = 1 << 21
	cfg.ExecGridHours = []float64{1}
	cfg.RecoveryGridHours = []float64{60.0 / 3600.0}
	cfg.Admission = AdmitConfig{Burst: [NumClasses]float64{1 << 30, 1 << 30, 1 << 30}}
	s := mustServer(t, cfg)

	const slots = 120
	toBuild, built := make(chan int), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(toBuild)
		ingest := func(slot, i int) {
			for j, k := range s.Keys() {
				if err := s.Ingest(k, slot, 0.05+0.001*float64((slot+i+j)%7)); err != nil {
					t.Error(err)
				}
			}
		}
		for slot := 0; slot < slots; slot++ {
			s.SetSlot(slot)
			ingest(slot, 0)
			toBuild <- slot
			// Up to 64 more prices at this slot, the first of them
			// unordered with the build but for the market locks.
			acked := false
			for i := 1; i <= 64 && !acked; i++ {
				ingest(slot, i)
				select {
				case <-built:
					acked = true
				default:
				}
			}
			if !acked {
				<-built
			}
		}
	}()
	builds := make(map[string]uint64)
	go func() {
		defer wg.Done()
		for slot := range toBuild {
			for _, r := range s.MaybeRebuild(slot) {
				builds[r.Key]++
			}
			built <- struct{}{}
		}
	}()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			last := make(map[instances.Type]uint64)
			var now int64 = int64(g) * 7
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if i%64 == 0 {
					s.Health()
				}
				typ := cfg.Types[i%len(cfg.Types)]
				now += 11
				resp, out := s.Quote(QuoteRequest{Type: typ, ExecHours: 1, NowMicros: now})
				if !out.Served() {
					if out == OutcomeRefusedCold {
						continue
					}
					t.Errorf("reader %d: unexpected outcome %v", g, out)
					return
				}
				if resp.Version < last[typ] {
					t.Errorf("reader %d: %s version regressed %d → %d", g, typ, last[typ], resp.Version)
					return
				}
				last[typ] = resp.Version
				if !(resp.Quote.Price > 0) {
					t.Errorf("reader %d: served torn/empty quote %+v", g, resp.Quote)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	for _, k := range s.Keys() {
		if tbl := s.Table(k); tbl == nil || tbl.Version < slots-5 || tbl.Version != builds[k.String()] {
			t.Fatalf("%s: table %+v after %d builds: build churn did not happen", k, tbl, builds[k.String()])
		}
	}
}

// TestConfigValidation rejects the unusable corners.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Types = nil },
		func(c *Config) { c.WindowSlots = -1 },
		func(c *Config) { c.MinSamples = 1 << 30 },
		func(c *Config) { c.StaleForSlots = 1; c.FreshForSlots = 2 },
		func(c *Config) { c.ExecGridHours = []float64{4, 1} },
		func(c *Config) { c.Types = []instances.Type{"no-such-type"} },
		func(c *Config) { c.Types = []instances.Type{instances.R3XLarge, instances.R3XLarge} },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(testConfig()); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestOutcomeNames keeps the enum and its names in lockstep.
func TestOutcomeNames(t *testing.T) {
	if len(outcomeNames) != int(NumOutcomes) {
		t.Fatalf("outcomeNames has %d entries for %d outcomes", len(outcomeNames), NumOutcomes)
	}
	for o := Outcome(0); o < NumOutcomes; o++ {
		if s := o.String(); s == "" || strings.Contains(s, "Outcome(") {
			t.Errorf("outcome %d has no name", o)
		}
	}
}
