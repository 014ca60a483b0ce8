package dist

import (
	"math"
	"math/rand"
	"testing"
)

func twoPareto(t *testing.T) *Mixture {
	t.Helper()
	steep, err := NewPareto(120, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := NewPareto(2.5, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMixture([]Dist{steep, heavy}, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixtureValidation(t *testing.T) {
	u, _ := NewUniform(0, 1)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture([]Dist{u}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewMixture([]Dist{u}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewMixture([]Dist{u}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestMixtureWeightNormalization(t *testing.T) {
	u1, _ := NewUniform(0, 1)
	u2, _ := NewUniform(2, 3)
	m, err := NewMixture([]Dist{u1, u2}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, w := m.Components()
	if math.Abs(w[0]-0.75) > 1e-12 || math.Abs(w[1]-0.25) > 1e-12 {
		t.Errorf("weights = %v", w)
	}
	// CDF reflects the weights: all of u1 is below 1.5.
	if got := m.CDF(1.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("CDF(1.5) = %v", got)
	}
}

func TestMixtureMomentsAgainstComponents(t *testing.T) {
	u1, _ := NewUniform(0, 1) // mean .5, var 1/12
	u2, _ := NewUniform(2, 4) // mean 3, var 4/12
	m, _ := NewMixture([]Dist{u1, u2}, []float64{1, 1})
	wantMean := 0.5*0.5 + 0.5*3
	if got := m.Mean(); math.Abs(got-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}
	// E[X²] = Σ w(var + mean²)
	m2 := 0.5*(1.0/12+0.25) + 0.5*(4.0/12+9)
	wantVar := m2 - wantMean*wantMean
	if got := m.Var(); math.Abs(got-wantVar) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, wantVar)
	}
	sup := m.Support()
	if sup.Lo != 0 || sup.Hi != 4 {
		t.Errorf("Support = %v", sup)
	}
}

func TestMixtureQuantileCDFInverse(t *testing.T) {
	m := twoPareto(t)
	for _, q := range probeQs {
		x := m.Quantile(q)
		if got := m.CDF(x); math.Abs(got-q) > 1e-8 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
	if got := m.Quantile(0); got != 0.03 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if !math.IsInf(m.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf for Pareto mixture")
	}
}

func TestMixtureSampleMatchesMoments(t *testing.T) {
	m := twoPareto(t)
	r := rand.New(rand.NewSource(8))
	xs := SampleN(m, r, 300000)
	mean, _ := MeanVar(xs)
	if rel := math.Abs(mean-m.Mean()) / m.Mean(); rel > 0.03 {
		t.Errorf("sample mean %v vs analytic %v", mean, m.Mean())
	}
	// Empirical CDF agrees at several probes.
	for _, x := range []float64{0.031, 0.035, 0.06, 0.2} {
		var n int
		for _, v := range xs {
			if v <= x {
				n++
			}
		}
		emp := float64(n) / float64(len(xs))
		if math.Abs(emp-m.CDF(x)) > 0.01 {
			t.Errorf("empirical CDF(%v) = %v vs %v", x, emp, m.CDF(x))
		}
	}
}

// TestSplitSamplers: Sample is its uniform draws fed through Pick and
// FromUniform, so a caller that draws the uniforms first and transforms
// them later gets the same bits from the same stream.
func TestSplitSamplers(t *testing.T) {
	m := twoPareto(t)
	comps, _ := m.Components()
	eager := rand.New(rand.NewSource(21))
	split := rand.New(rand.NewSource(21))
	for i := 0; i < 10000; i++ {
		want := m.Sample(eager)
		c := m.Pick(split.Float64())
		got := comps[c].(Pareto).FromUniform(split.Float64())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: split %v, Sample %v", i, got, want)
		}
	}
	for u, want := range map[float64]int{0: 0, 0.9: 0, math.Nextafter(0.9, 1): 1, 1: 1} {
		if got := m.Pick(u); got != want {
			t.Errorf("Pick(%v) = %d, want %d", u, got, want)
		}
	}
}

func TestMixturePDFIntegratesToCDF(t *testing.T) {
	m := twoPareto(t)
	for _, x := range []float64{0.035, 0.05, 0.2} {
		got := Integrate(m.PDF, 0.03, x, 1e-12)
		want := m.CDF(x)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("∫PDF to %v = %v, CDF %v", x, got, want)
		}
	}
}

func TestMixturePartialMean(t *testing.T) {
	m := twoPareto(t)
	for _, x := range []float64{0.032, 0.05, 0.5} {
		want := Integrate(func(v float64) float64 { return v * m.PDF(v) }, 0.03, x, 1e-12)
		if got := m.PartialMean(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("PartialMean(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestParetoPartialMeanClosedForm(t *testing.T) {
	p, _ := NewPareto(2.5, 0.03)
	for _, x := range []float64{0.031, 0.05, 1, 100} {
		want := Integrate(func(v float64) float64 { return v * p.PDF(v) }, 0.03, x, 1e-13)
		if got := p.PartialMean(x); math.Abs(got-want) > 1e-8 {
			t.Errorf("PartialMean(%v) = %v, want %v", x, got, want)
		}
	}
	if got := p.PartialMean(0.01); got != 0 {
		t.Errorf("PartialMean below support = %v", got)
	}
	// α = 1 logarithmic branch.
	p1, _ := NewPareto(1, 2)
	want := 2 * math.Log(5.0/2.0)
	if got := p1.PartialMean(5); math.Abs(got-want) > 1e-12 {
		t.Errorf("α=1 PartialMean = %v, want %v", got, want)
	}
}
