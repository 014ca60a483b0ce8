package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/instances"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/stats"
)

func TestCalibrationsExistForAllTypes(t *testing.T) {
	for _, s := range instances.All() {
		c, err := CalibrationFor(s.Type)
		if err != nil {
			t.Errorf("%s: %v", s.Type, err)
			continue
		}
		if err := c.Provider.Validate(); err != nil {
			t.Errorf("%s: invalid provider: %v", s.Type, err)
		}
		if c.Provider.POnDemand != s.OnDemand {
			t.Errorf("%s: calibration π̄ = %v, catalog %v", s.Type, c.Provider.POnDemand, s.OnDemand)
		}
		if _, err := c.ArrivalDist(); err != nil {
			t.Errorf("%s: arrival distribution: %v", s.Type, err)
		}
		if _, err := c.PriceDist(); err != nil {
			t.Errorf("%s: price distribution: %v", s.Type, err)
		}
		if c.ExpEta <= 0 {
			t.Errorf("%s: non-positive η", s.Type)
		}
	}
}

func TestCalibrationForUnknown(t *testing.T) {
	if _, err := CalibrationFor("t2.micro"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestCalibrationStructure(t *testing.T) {
	// θ = 0.02 follows the paper's Fig. 3 fits; β follows the
	// headroom rule; the mixture sits in the interior-optimum regime
	// ψ(π̲) > t_k/t_r − 1 for t_r = 10s (see gen.go).
	for _, s := range instances.All() {
		c, err := CalibrationFor(s.Type)
		if err != nil {
			t.Fatal(err)
		}
		if c.Provider.Theta != 0.02 {
			t.Errorf("%s: θ = %v, want 0.02", s.Type, c.Provider.Theta)
		}
		if math.Abs(c.Provider.Beta-arrivalHeadroom*(c.Provider.POnDemand-2*c.Provider.PMin)) > 1e-12 {
			t.Errorf("%s: β = %v off the headroom rule", s.Type, c.Provider.Beta)
		}
		if c.PlateauWeight <= 0.5 || c.PlateauWeight >= 1 {
			t.Errorf("%s: plateau weight %v outside (0.5, 1)", s.Type, c.PlateauWeight)
		}
		if c.PlateauAlpha <= c.TailAlpha {
			t.Errorf("%s: plateau α %v not steeper than tail α %v", s.Type, c.PlateauAlpha, c.TailAlpha)
		}
		// Interior-optimum regime: ψ(π̲) = π̲·f_π(π̲) > 29.
		pd, err := c.PriceDist()
		if err != nil {
			t.Fatal(err)
		}
		floor := c.Provider.PMin
		if psi := floor * pd.PDF(floor+1e-9); psi <= 29 {
			t.Errorf("%s: ψ(π̲) = %v ≤ 29: persistent optima would degenerate to the floor", s.Type, psi)
		}
	}
}

func TestGenerateTwoMonthTrace(t *testing.T) {
	tr, err := Generate(instances.R3XLarge, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 61 days × 288 slots.
	if tr.Len() != 61*288 {
		t.Fatalf("trace length %d, want %d", tr.Len(), 61*288)
	}
	c, _ := CalibrationFor(instances.R3XLarge)
	// All prices within [π̲, π̄/2].
	if tr.Min() < c.Provider.PMin-1e-12 {
		t.Errorf("min price %v below floor %v", tr.Min(), c.Provider.PMin)
	}
	if tr.Max() > c.Provider.POnDemand/2 {
		t.Errorf("max price %v above π̄/2", tr.Max())
	}
	// Mean price sits at "deep discount" levels: below 15% of
	// on-demand (the premise of the paper's 90% savings headline).
	if tr.Mean() > 0.15*c.Provider.POnDemand {
		t.Errorf("mean price %v too high vs on-demand %v", tr.Mean(), c.Provider.POnDemand)
	}
}

func TestGenerateMatchesAnalyticDistribution(t *testing.T) {
	c, err := CalibrationFor(instances.M3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Generate(GenOptions{Days: 61, Seed: 7, DwellSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := c.PriceDist()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(tr.Mean()-pd.Mean()) / pd.Mean(); rel > 0.02 {
		t.Errorf("trace mean %v vs analytic %v", tr.Mean(), pd.Mean())
	}
	// Quantiles line up too.
	for _, q := range []float64{0.25, 0.5, 0.9} {
		emp := stats.Percentile(tr.Prices, q*100)
		ana := pd.Quantile(q)
		if math.Abs(emp-ana)/ana > 0.02 {
			t.Errorf("q%v: empirical %v vs analytic %v", q, emp, ana)
		}
	}
}

func TestGenerateDeterministicSeed(t *testing.T) {
	a, err := Generate(instances.C34XL, GenOptions{Days: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(instances.C34XL, GenOptions{Days: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Prices {
		if a.Prices[i] != b.Prices[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, err := Generate(instances.C34XL, GenOptions{Days: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Prices {
		if a.Prices[i] != c.Prices[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateFullDynamics(t *testing.T) {
	tr, err := Generate(instances.R3XLarge, GenOptions{Days: 7, FullDynamics: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7*288 {
		t.Fatalf("length %d", tr.Len())
	}
	c, _ := CalibrationFor(instances.R3XLarge)
	if tr.Min() < c.Provider.PMin-1e-12 || tr.Max() > c.Provider.POnDemand {
		t.Error("full-dynamics prices out of range")
	}
	// Full dynamics carries temporal correlation (the queue is the
	// shared state); the equilibrium model does not.
	acFull := stats.Autocorrelation(tr.Prices, []int{1})[0]
	eq, err := Generate(instances.R3XLarge, GenOptions{Days: 7, Seed: 3, DwellSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	acEq := stats.Autocorrelation(eq.Prices, []int{1})[0]
	if acFull < acEq {
		t.Errorf("full-dynamics lag-1 autocorrelation %v not above equilibrium %v", acFull, acEq)
	}
}

func TestGenerateDiurnal(t *testing.T) {
	tr, err := Generate(instances.R3XLarge, GenOptions{Days: 14, DiurnalAmplitude: 0.9, Seed: 2, DwellSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	day, night := tr.DayNight()
	// The modulation peaks mid-morning (sin positive in the first
	// half-day), so day prices should be measurably higher.
	res, err := stats.KSTwoSample(day, night)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.01 {
		t.Errorf("diurnal trace passed day/night KS: D=%v p=%v", res.D, res.P)
	}
	// And the stationary trace should pass it.
	flat, err := Generate(instances.R3XLarge, GenOptions{Days: 14, Seed: 2, DwellSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, n2 := flat.DayNight()
	res2, err := stats.KSTwoSample(d2, n2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.P < 0.01 {
		t.Errorf("stationary trace failed day/night KS: D=%v p=%v", res2.D, res2.P)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("bogus", GenOptions{}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := Generate(instances.R3XLarge, GenOptions{Days: -1}); err == nil {
		t.Error("negative days accepted")
	}
	if _, err := Generate(instances.R3XLarge, GenOptions{DiurnalAmplitude: 2}); err == nil {
		t.Error("amplitude 2 accepted")
	}
}

// eagerDwellPrices is the i.i.d. dwell generator as it was before
// levels became lazy, kept as the reference: every level priced by
// market.EquilibriumPrices over the arrival mixture, then, above dwell
// 1, the dwell pass over the priced levels.
func eagerDwellPrices(c Calibration, days int, seed int64, dwell int) ([]float64, int64, error) {
	par, err := c.ArrivalDist()
	if err != nil {
		return nil, 0, err
	}
	r := rand.New(rand.NewSource(seed))
	prices, err := market.EquilibriumPrices(c.Provider, arrivals.NewIID(par), days*288, r)
	if err != nil || dwell == 1 {
		return prices, 0, err
	}
	var switches int64
	switchP := 1 / float64(dwell)
	cur := prices[0]
	for i := 1; i < len(prices); i++ {
		if r.Float64() >= switchP {
			prices[i] = cur
		} else {
			cur = prices[i]
			switches++
		}
	}
	return prices, switches, nil
}

// TestLazyLevelsMatchEager: the lazy-level generator reproduces the
// eager reference bit for bit, prices and trace.dwell_switches both,
// for every calibration at seeds 1–10, dwells 2, 18 and 40, and 1, 61
// and 63 days; at dwell 1 the direct draws reproduce
// market.EquilibriumPrices itself, and no switch is recorded. The
// goldens cover only Table 3's types at a few seeds.
func TestLazyLevelsMatchEager(t *testing.T) {
	SetMemoCapacity(0)
	t.Cleanup(func() { SetMemoCapacity(DefaultMemoCapacity) })
	for _, spec := range instances.All() {
		c, err := CalibrationFor(spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(string(spec.Type), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 10; seed++ {
				for _, dwell := range []int{1, 2, 18, 40} {
					for _, days := range []int{1, 61, 63} {
						name := fmt.Sprintf("seed %d, dwell %d, %d days", seed, dwell, days)
						want, wantSwitches, err := eagerDwellPrices(c, days, seed, dwell)
						if err != nil {
							t.Fatal(err)
						}
						met := obs.New()
						tr, err := c.Generate(GenOptions{Days: days, Seed: seed, DwellSlots: dwell, Metrics: met})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if len(tr.Prices) != len(want) {
							t.Fatalf("%s: %d slots, want %d", name, len(tr.Prices), len(want))
						}
						for i, p := range tr.Prices {
							if math.Float64bits(p) != math.Float64bits(want[i]) {
								t.Fatalf("%s: slot %d is %v, eager reference %v", name, i, p, want[i])
							}
						}
						if got := met.CounterValue("trace.dwell_switches"); got != wantSwitches {
							t.Fatalf("%s: %d dwell switches, eager reference %d", name, got, wantSwitches)
						}
					}
				}
			}
		})
	}
}

// TestLazyLevelsKeepEquilibriumErrors: an invalid provider fails the
// lazy path with the error EquilibriumPrices returns on the eager one.
func TestLazyLevelsKeepEquilibriumErrors(t *testing.T) {
	SetMemoCapacity(0)
	defer SetMemoCapacity(DefaultMemoCapacity)
	c, err := CalibrationFor(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	c.Provider.Theta = 2 // outside (0, 1]; Λ_min stays positive
	_, want := market.EquilibriumPrices(c.Provider, arrivals.Deterministic{Volume: 1}, 1, rand.New(rand.NewSource(1)))
	if want == nil {
		t.Fatal("EquilibriumPrices accepted θ = 2")
	}
	for _, dwell := range []int{1, 18} {
		_, err := c.Generate(GenOptions{Days: 1, DwellSlots: dwell})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("dwell %d: error %v, want %v", dwell, err, want)
		}
	}
}
