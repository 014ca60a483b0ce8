package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

var (
	persist10 = Job{Exec: 1, Recovery: timeslot.Seconds(10)}
	persist30 = Job{Exec: 1, Recovery: timeslot.Seconds(30)}
)

func TestExpectedRunningTimeClosedForm(t *testing.T) {
	// Hand-computed: F(p) = 0.5, t_r/t_k = 0.5, t_s = 1, t_r = 1/24 h.
	u, _ := dist.NewUniform(0, 1)
	m := Market{Price: u, OnDemand: 2, Slot: timeslot.Hours(1.0 / 12.0)}
	job := Job{Exec: 1, Recovery: timeslot.Hours(1.0 / 24.0)}
	run, err := m.ExpectedRunningTime(0.5, job)
	if err != nil {
		t.Fatal(err)
	}
	// (1 − 1/24) / (1 − 0.5·0.5) = (23/24)/(3/4) = 23/18.
	want := (23.0 / 24.0) / 0.75
	if math.Abs(float64(run)-want) > 1e-12 {
		t.Errorf("run = %v, want %v", float64(run), want)
	}
}

func TestExpectedRunningTimeInfeasible(t *testing.T) {
	// Recovery of 2 slots with F = 0.4: t_r/t_k·(1−F) = 1.2 > 1.
	u, _ := dist.NewUniform(0, 1)
	m := Market{Price: u, OnDemand: 2, Slot: timeslot.Hours(0.1)}
	job := Job{Exec: 1, Recovery: timeslot.Hours(0.2)}
	if _, err := m.ExpectedRunningTime(0.4, job); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestRunningTimeDecreasesWithBid(t *testing.T) {
	// Eq. 13: higher bids mean fewer interruptions, less recovery.
	m := analyticMarket(t)
	prev := math.Inf(1)
	for _, p := range dist.Linspace(0.031, 0.17, 30) {
		run, err := m.ExpectedRunningTime(p, persist30)
		if err != nil {
			continue
		}
		if float64(run) > prev+1e-12 {
			t.Fatalf("running time increased at bid %v", p)
		}
		prev = float64(run)
	}
}

func TestPsiDecreasing(t *testing.T) {
	// See DESIGN.md: ψ decreases in p for decreasing spot densities.
	m := analyticMarket(t)
	prev := math.Inf(1)
	for _, p := range dist.Linspace(0.0305, 0.17, 60) {
		v, err := m.Psi(p)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev+1e-9 {
			t.Fatalf("ψ increased at %v: %v > %v", p, v, prev)
		}
		prev = v
	}
	// ψ at the bottom of the support is +Inf (B = 0).
	v, err := m.Psi(0.03)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Errorf("ψ(π̲) = %v, want +Inf", v)
	}
}

func TestPersistentBidOptimality(t *testing.T) {
	// The returned bid beats every probe on a fine grid (the grid
	// oracle of Prop. 5).
	for name, m := range bothMarkets(t) {
		for _, job := range []Job{persist10, persist30} {
			bid, err := m.PersistentBid(job)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, p := range dist.Linspace(0.0301, 0.35, 500) {
				probe, err := m.EvalPersistent(p, job)
				if err != nil {
					continue
				}
				if probe.ExpectedCost < bid.ExpectedCost-1e-9 {
					t.Errorf("%s t_r=%v: probe %v costs %v < optimum %v at %v",
						name, job.Recovery, p, probe.ExpectedCost, bid.ExpectedCost, bid.Price)
					break
				}
			}
		}
	}
}

func TestPersistentBelowOneTime(t *testing.T) {
	// Fig. 6(a): persistent bids sit below one-time bids — the user
	// accepts interruptions in exchange for a lower price.
	for name, m := range bothMarkets(t) {
		ot, err := m.OneTimeBid(oneHourJob)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range []Job{persist10, persist30} {
			ps, err := m.PersistentBid(job)
			if err != nil {
				t.Fatal(err)
			}
			if ps.Price > ot.Price+1e-12 {
				t.Errorf("%s t_r=%v: persistent bid %v above one-time %v",
					name, job.Recovery, ps.Price, ot.Price)
			}
		}
	}
}

func TestLongerRecoveryRaisesBid(t *testing.T) {
	// §7.1: "longer recovery times (t_r = 30s rather than 10s) yield
	// higher bid prices".
	for name, m := range bothMarkets(t) {
		b10, err := m.PersistentBid(persist10)
		if err != nil {
			t.Fatal(err)
		}
		b30, err := m.PersistentBid(persist30)
		if err != nil {
			t.Fatal(err)
		}
		if b30.Price < b10.Price {
			t.Errorf("%s: bid(t_r=30s) = %v < bid(t_r=10s) = %v", name, b30.Price, b10.Price)
		}
		// And the lower bid (10s) yields the lower cost — Fig. 6(c).
		if b10.ExpectedCost > b30.ExpectedCost+1e-12 {
			t.Errorf("%s: cost(10s) = %v above cost(30s) = %v", name, b10.ExpectedCost, b30.ExpectedCost)
		}
	}
}

func TestPersistentCheaperThanOneTime(t *testing.T) {
	// Fig. 6(c): persistent requests reduce the final cost.
	for name, m := range bothMarkets(t) {
		ot, err := m.OneTimeBid(oneHourJob)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := m.PersistentBid(persist30)
		if err != nil {
			t.Fatal(err)
		}
		if ps.ExpectedCost > ot.ExpectedCost {
			t.Errorf("%s: persistent cost %v above one-time %v", name, ps.ExpectedCost, ot.ExpectedCost)
		}
		// But completes later — Fig. 6(b).
		if float64(ps.ExpectedCompletion) < float64(ot.ExpectedCompletion) {
			t.Errorf("%s: persistent completion %v below one-time %v",
				name, float64(ps.ExpectedCompletion), float64(ot.ExpectedCompletion))
		}
	}
}

func TestPersistentBeatsPercentileBaseline(t *testing.T) {
	// §7.1: bidding the 90th percentile saves less than the optimum.
	m := analyticMarket(t)
	opt, err := m.PersistentBid(persist30)
	if err != nil {
		t.Fatal(err)
	}
	p90, err := m.PercentileBid(90)
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.EvalPersistent(p90, persist30)
	if err != nil {
		t.Fatal(err)
	}
	if base.ExpectedCost < opt.ExpectedCost-1e-12 {
		t.Errorf("90th percentile cost %v beats optimum %v", base.ExpectedCost, opt.ExpectedCost)
	}
}

func TestZeroRecoveryBidsFloor(t *testing.T) {
	// Free interruptions ⇒ bid as low as possible.
	m := analyticMarket(t)
	bid, err := m.PersistentBid(Job{Exec: 1, Recovery: 0})
	if err != nil {
		t.Fatal(err)
	}
	sup := m.Price.Support()
	if bid.Price > sup.Lo+0.002 {
		t.Errorf("zero-recovery bid %v far above floor %v", bid.Price, sup.Lo)
	}
}

func TestPersistentInfeasibleRecovery(t *testing.T) {
	// Recovery longer than a slot with a price support reaching
	// beyond π̄: feasibility needs F(p) > 1 − t_k/t_r which may be
	// unreachable below π̄.
	u, _ := dist.NewUniform(0.1, 1.0)
	m := Market{Price: u, OnDemand: 0.3}
	job := Job{Exec: 10, Recovery: timeslot.Hours(1)} // t_r = 12 slots
	if _, err := m.PersistentBid(job); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestEvalPersistentBelowSupport(t *testing.T) {
	m := analyticMarket(t)
	if _, err := m.EvalPersistent(0.001, persist30); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

// composedEvalPersistent is EvalPersistent composed from the public
// calls, three CDF reads per bid: F(p) from CDF, Eq. 13 from
// ExpectedRunningTime and E[π | π ≤ p] from dist.ConditionalMean.
func composedEvalPersistent(m Market, p float64, job Job) (Bid, error) {
	mm, err := m.normalized()
	if err != nil {
		return Bid{}, err
	}
	if err := job.Validate(); err != nil {
		return Bid{}, err
	}
	f := mm.Price.CDF(p)
	if f <= 0 {
		return Bid{}, fmt.Errorf("%w: bid %v never beats the spot price", ErrInfeasible, p)
	}
	run, err := mm.ExpectedRunningTime(p, job)
	if err != nil {
		return Bid{}, err
	}
	espot := dist.ConditionalMean(mm.Price, p)
	completion := timeslot.Hours(float64(run) / f)
	inter := float64(completion)/float64(mm.Slot)*f*(1-f) - 1
	if inter < 0 {
		inter = 0
	}
	cost := float64(run) * espot
	odCost := float64(job.Exec) * mm.OnDemand
	return Bid{
		Price:                 p,
		AcceptProb:            f,
		ExpectedSpot:          espot,
		ExpectedRunTime:       run,
		ExpectedCompletion:    completion,
		ExpectedInterruptions: inter,
		ExpectedCost:          cost,
		OnDemandCost:          odCost,
		BeatsOnDemand:         cost <= odCost,
	}, nil
}

// TestEvalPersistentReadsCDFOnce pins the one-CDF evaluator to the
// composition it replaced: on an Empirical, a WindowedECDF and a
// uniform market with no PartialMean method (so the conditional mean
// integrates the density), at bids from below the support to above π̄
// and t_r ∈ {0, 10 s, 30 s, 1 h}, every field of EvalPersistent must
// equal composedEvalPersistent's bit for bit, and the two must fail on
// the same bids with the same error.
func TestEvalPersistentReadsCDFOnce(t *testing.T) {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	win, err := dist.NewWindowedECDF(2880, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tr.Prices); lo += 500 {
		if err := win.Slide(tr.Prices[lo:min(lo+500, len(tr.Prices))]); err != nil {
			t.Fatal(err)
		}
	}
	u, err := dist.NewUniform(0.03, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(u).(interface{ PartialMean(float64) float64 }); ok {
		t.Fatal("the uniform market has a PartialMean method; the integral path would not run")
	}
	od := instances.MustLookup(instances.R3XLarge).OnDemand
	markets := map[string]Market{
		"empirical": empiricalMarket(t),
		"windowed":  {Price: win, OnDemand: od},
		"uniform":   {Price: u, OnDemand: 0.25},
	}
	for name, m := range markets {
		sup := m.Price.Support()
		bids := append(dist.Linspace(sup.Lo-0.01, m.OnDemand+0.05, 241), sup.Lo, sup.Hi, m.OnDemand)
		for _, q := range []float64{0.05, 0.5, 0.9, 0.99} {
			bids = append(bids, m.Price.Quantile(q))
		}
		var ok, infeasible int
		for _, rec := range []timeslot.Hours{0, timeslot.Seconds(10), timeslot.Seconds(30), 1} {
			job := Job{Exec: 2, Recovery: rec}
			for _, p := range bids {
				got, gerr := m.EvalPersistent(p, job)
				want, werr := composedEvalPersistent(m, p, job)
				if (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrInfeasible) != errors.Is(werr, ErrInfeasible) ||
					gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("%s t_r=%v bid %v: error %v, composed %v", name, float64(rec), p, gerr, werr)
				}
				if gerr != nil {
					infeasible++
					continue
				}
				ok++
				bits := func(b Bid) [8]uint64 {
					return [8]uint64{
						math.Float64bits(b.Price), math.Float64bits(b.AcceptProb), math.Float64bits(b.ExpectedSpot),
						math.Float64bits(float64(b.ExpectedRunTime)), math.Float64bits(float64(b.ExpectedCompletion)),
						math.Float64bits(b.ExpectedInterruptions), math.Float64bits(b.ExpectedCost), math.Float64bits(b.OnDemandCost),
					}
				}
				if bits(got) != bits(want) || got.BeatsOnDemand != want.BeatsOnDemand {
					t.Fatalf("%s t_r=%v bid %v:\n  evaluator %+v\n  composed  %+v", name, float64(rec), p, got, want)
				}
			}
		}
		// Vacuity guard: both outcomes must occur on every market.
		if ok == 0 || infeasible == 0 {
			t.Fatalf("%s: %d feasible and %d infeasible evaluations — widen the bids", name, ok, infeasible)
		}
	}
}

func TestPersistentBeatsOnDemand(t *testing.T) {
	// Prop. 5's proof: Φ(p*) ≤ t_s·π̄ always holds at the optimum.
	for name, m := range bothMarkets(t) {
		bid, err := m.PersistentBid(persist30)
		if err != nil {
			t.Fatal(err)
		}
		if !bid.BeatsOnDemand {
			t.Errorf("%s: optimal persistent bid loses to on-demand", name)
		}
		if bid.Savings() < 0.8 {
			t.Errorf("%s: savings %v below 80%%", name, bid.Savings())
		}
	}
}

// TestEq13MatchesMonteCarlo replays the persistent-request process —
// i.i.d. slot prices, recovery t_r consumed from each post-interruption
// slot — and compares the measured running time, completion time, and
// interruption count against the closed forms (Eq. 12–13).
func TestEq13MatchesMonteCarlo(t *testing.T) {
	m := analyticMarket(t)
	job := persist30
	bid, err := m.PersistentBid(job)
	if err != nil {
		t.Fatal(err)
	}
	slot := float64(timeslot.DefaultSlot)
	r := rand.New(rand.NewSource(99))

	const trials = 3000
	var sumRun, sumCompl, sumInter float64
	for trial := 0; trial < trials; trial++ {
		remaining := float64(job.Exec)
		var run, inter float64
		var slots int
		prevRunning := false
		started := false
		for remaining > 0 {
			slots++
			price := m.Price.Sample(r)
			if bid.Price >= price {
				avail := slot
				if started && !prevRunning {
					avail -= float64(job.Recovery) // recovery consumes work time
					inter++
				}
				started = true
				remaining -= avail
				run += slot
				prevRunning = true
			} else {
				prevRunning = false
			}
		}
		sumRun += run
		sumCompl += float64(slots) * slot
		sumInter += inter
	}
	mcRun := sumRun / trials
	mcCompl := sumCompl / trials
	mcInter := sumInter / trials

	// Eq. 13 is a continuous-time expectation; the slot-granular
	// replay additionally bills the partially-used final slot and
	// rounds recoveries into slot grains — worth about half a slot
	// (≈ 4% of a 12-slot job). Allow 8%.
	if rel := math.Abs(mcRun-float64(bid.ExpectedRunTime)) / float64(bid.ExpectedRunTime); rel > 0.08 {
		t.Errorf("running time: MC %v vs Eq.13 %v (rel %v)", mcRun, float64(bid.ExpectedRunTime), rel)
	}
	if rel := math.Abs(mcCompl-float64(bid.ExpectedCompletion)) / float64(bid.ExpectedCompletion); rel > 0.08 {
		t.Errorf("completion: MC %v vs model %v (rel %v)", mcCompl, float64(bid.ExpectedCompletion), rel)
	}
	if diff := math.Abs(mcInter - bid.ExpectedInterruptions); diff > math.Max(1, 0.25*bid.ExpectedInterruptions) {
		t.Errorf("interruptions: MC %v vs model %v", mcInter, bid.ExpectedInterruptions)
	}
}

func TestPercentileBid(t *testing.T) {
	m := analyticMarket(t)
	p90, err := m.PercentileBid(90)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Price.CDF(p90); math.Abs(got-0.9) > 1e-6 {
		t.Errorf("CDF(p90) = %v", got)
	}
	for _, bad := range []float64{0, 100, -5, 120} {
		if _, err := m.PercentileBid(bad); err == nil {
			t.Errorf("percentile %v accepted", bad)
		}
	}
	// Clamped to [floor, π̄].
	u, _ := dist.NewUniform(0.1, 1.0)
	clamped := Market{Price: u, OnDemand: 0.5}
	p99, err := clamped.PercentileBid(99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 > 0.5 {
		t.Errorf("percentile bid %v above π̄", p99)
	}
}

func TestOnDemandCost(t *testing.T) {
	m := analyticMarket(t)
	c, err := m.OnDemandCost(oneHourJob)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-0.35) > 1e-12 {
		t.Errorf("on-demand cost = %v", c)
	}
	if _, err := m.OnDemandCost(Job{}); err == nil {
		t.Error("invalid job accepted")
	}
}

// ecdfPrice is what opaquePrice lets a solver see of a price: the Dist
// methods and PartialMean.
type ecdfPrice interface {
	dist.Dist
	PartialMean(p float64) float64
}

// opaquePrice hides an ECDF's concrete type, so the solvers see neither
// its one-search joint read nor its Values(): every read makes a CDF
// and a PartialMean call, and the Prop. 5 grid calls the cost at all
// of its points.
type opaquePrice struct{ ecdfPrice }

// bidBits is every field of a Bid, floats as their bits.
func bidBits(b Bid) [9]uint64 {
	var beats uint64
	if b.BeatsOnDemand {
		beats = 1
	}
	return [9]uint64{
		math.Float64bits(b.Price), math.Float64bits(b.AcceptProb), math.Float64bits(b.ExpectedSpot),
		math.Float64bits(float64(b.ExpectedRunTime)), math.Float64bits(float64(b.ExpectedCompletion)),
		math.Float64bits(b.ExpectedInterruptions), math.Float64bits(b.ExpectedCost),
		math.Float64bits(b.OnDemandCost), beats,
	}
}

// sameError reports whether two solver errors agree: both nil, or both
// non-nil with the same ErrInfeasible match and the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return errors.Is(a, ErrInfeasible) == errors.Is(b, ErrInfeasible) && a.Error() == b.Error()
}

// TestECDFFastPathsMatchOpaquePrice holds the ECDF fast paths, the
// Prop. 5 grid that prices each price step once and the one-search
// read of F(p) and the partial mean, to the paths the solvers take
// when they cannot see them. On Empirical and WindowedECDF prices,
// PersistentBid, OneTimeBid, EvalPersistent, EvalOneTime and Psi must
// return, bit for bit in every field and with the same error, what
// they return on the same market with its price wrapped in
// opaquePrice. The windows: dwell-18 and i.i.d. traces (on these
// seeds the grid's or the golden refinement's candidate wins some
// solves, so a wrong grid shows), one sample, one price repeated, and
// a dwell-18 trace with every third price above π̄, where Eq. 14 can
// fail. Each market is solved with and without a floor above the
// support's low end, at t_r from 0 to 1 h (Eq. 14 raises the grid's
// low end above t_k = 5 min) and t_s from 15 min to 24 h.
func TestECDFFastPathsMatchOpaquePrice(t *testing.T) {
	gen := func(typ instances.Type, seed int64, dwell int) []float64 {
		tr, err := trace.Generate(typ, trace.GenOptions{Days: 12, Seed: seed, DwellSlots: dwell})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Prices
	}
	repeated := make([]float64, 300)
	for i := range repeated {
		repeated[i] = 0.0412
	}
	spiky := gen(instances.R3XLarge, 3, 0)
	for i := 0; i < len(spiky); i += 3 {
		spiky[i] = 0.5
	}
	od := instances.MustLookup(instances.R3XLarge).OnDemand
	windows := []struct {
		name     string
		prices   []float64
		onDemand float64
	}{
		{"dwell-18", gen(instances.R3XLarge, 3, 0), od},
		{"r3.4xlarge dwell-18", gen(instances.R34XL, 3, 0), instances.MustLookup(instances.R34XL).OnDemand},
		{"i.i.d.", gen(instances.R3XLarge, 1, 1), od},
		{"one sample", []float64{0.0412}, od},
		{"one repeated price", repeated, od},
		{"above π̄", spiky, od},
	}
	recs := []timeslot.Hours{0, timeslot.Seconds(10), timeslot.Seconds(30), timeslot.Seconds(300),
		timeslot.Seconds(600), timeslot.Seconds(1800), 1}
	execs := []timeslot.Hours{0.25, 1, 4, 24}
	var solved, infeasible, evals, evalErrs int
	for _, w := range windows {
		emp, err := dist.NewEmpirical(w.prices, 0)
		if err != nil {
			t.Fatal(err)
		}
		win, err := dist.NewWindowedECDF(len(w.prices), 0)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(w.prices); lo += 500 {
			if err := win.Slide(w.prices[lo:min(lo+500, len(w.prices))]); err != nil {
				t.Fatal(err)
			}
		}
		for _, price := range []ecdfPrice{emp, win} {
			sup := price.Support()
			od := w.onDemand
			bids := append(dist.Linspace(sup.Lo-0.01, od+0.05, 61), sup.Lo, sup.Hi, od)
			for _, q := range []float64{0.05, 0.5, 0.9, 0.99} {
				bids = append(bids, price.Quantile(q))
			}
			for _, floor := range []float64{0, (sup.Lo+price.Quantile(0.5))/2 + 1e-3} {
				bare := Market{Price: price, OnDemand: od, MinPrice: floor}
				hidden := Market{Price: opaquePrice{price}, OnDemand: od, MinPrice: floor}
				name := fmt.Sprintf("%s %T floor %v", w.name, price, floor)
				for _, p := range bids {
					got, gerr := bare.Psi(p)
					want, werr := hidden.Psi(p)
					if math.Float64bits(got) != math.Float64bits(want) || !sameError(gerr, werr) {
						t.Fatalf("%s: Psi(%v) = %v, %v; opaque %v, %v", name, p, got, gerr, want, werr)
					}
				}
				for _, rec := range recs {
					for _, exec := range execs {
						if rec >= exec {
							continue
						}
						job := Job{Exec: exec, Recovery: rec}
						at := fmt.Sprintf("%s t_s=%v t_r=%v", name, float64(exec), float64(rec))
						for _, solve := range []struct {
							what string
							fn   func(Market) (Bid, error)
						}{
							{"PersistentBid", func(m Market) (Bid, error) { return m.PersistentBid(job) }},
							{"OneTimeBid", func(m Market) (Bid, error) { return m.OneTimeBid(job) }},
						} {
							got, gerr := solve.fn(bare)
							want, werr := solve.fn(hidden)
							if bidBits(got) != bidBits(want) || !sameError(gerr, werr) {
								t.Fatalf("%s: %s\n  fast   %+v, %v\n  opaque %+v, %v", at, solve.what, got, gerr, want, werr)
							}
							if solve.what == "PersistentBid" {
								if gerr == nil {
									solved++
								} else if errors.Is(gerr, ErrInfeasible) {
									infeasible++
								}
							}
						}
						for _, p := range bids {
							got, gerr := bare.EvalPersistent(p, job)
							want, werr := hidden.EvalPersistent(p, job)
							if bidBits(got) != bidBits(want) || !sameError(gerr, werr) {
								t.Fatalf("%s: EvalPersistent(%v)\n  fast   %+v, %v\n  opaque %+v, %v", at, p, got, gerr, want, werr)
							}
							evals++
							if gerr != nil {
								evalErrs++
							}
							got, gerr = bare.EvalOneTime(p, job)
							want, werr = hidden.EvalOneTime(p, job)
							if bidBits(got) != bidBits(want) || !sameError(gerr, werr) {
								t.Fatalf("%s: EvalOneTime(%v)\n  fast   %+v, %v\n  opaque %+v, %v", at, p, got, gerr, want, werr)
							}
						}
					}
				}
			}
		}
	}
	// Vacuity guard: solved and Eq. 14-infeasible jobs, and feasible
	// and infeasible bids, must all occur.
	if solved == 0 || infeasible == 0 || evalErrs == 0 || evalErrs == evals {
		t.Fatalf("%d solved and %d infeasible jobs, %d of %d bids infeasible", solved, infeasible, evalErrs, evals)
	}
	t.Logf("%d solved and %d infeasible jobs, %d of %d bids infeasible", solved, infeasible, evalErrs, evals)
}
