// Package dist provides the probability-distribution toolkit that the
// reproduction hand-rolls on top of the standard library: parametric
// families (uniform, exponential, Pareto), empirical distributions
// built from spot-price traces, and the numerical routines (adaptive
// Simpson integration, bisection root finding, golden-section
// minimization) needed to evaluate the paper's bid-optimization
// formulas.
//
// Go has no mature statistics ecosystem in its standard library, so
// everything here — PDFs, CDFs, quantiles, sampling, fitting targets —
// is implemented from first principles and cross-validated by the
// package tests (analytic moments vs Monte-Carlo moments, quantile∘CDF
// identity, etc.).
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Dist is a univariate continuous probability distribution. All
// distributions used by the spot-market model implement it.
//
// Implementations must satisfy the usual consistency laws, which the
// test suite checks by property testing:
//
//   - CDF is non-decreasing, CDF(Support().Lo) = 0, CDF(Support().Hi) = 1
//   - Quantile(CDF(x)) ≈ x on the interior of the support
//   - PDF ≥ 0 and ∫ PDF = 1 over the support
type Dist interface {
	// PDF evaluates the probability density at x. Outside the
	// support it returns 0.
	PDF(x float64) float64
	// CDF evaluates the cumulative distribution function at x.
	CDF(x float64) float64
	// Quantile returns the q-th quantile, q ∈ [0, 1]. Quantile(0)
	// and Quantile(1) return the bounds of the support (which may be
	// ±Inf for unbounded distributions).
	Quantile(q float64) float64
	// Sample draws one variate using the provided random source.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution mean (may be +Inf, e.g. a Pareto
	// with α ≤ 1).
	Mean() float64
	// Var returns the distribution variance (may be +Inf).
	Var() float64
	// Support returns the interval outside which the density is 0.
	Support() Interval
}

// Interval is a closed interval [Lo, Hi] on the real line.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width reports Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Clamp returns x restricted to the interval.
func (iv Interval) Clamp(x float64) float64 {
	if x < iv.Lo {
		return iv.Lo
	}
	if x > iv.Hi {
		return iv.Hi
	}
	return x
}

func (iv Interval) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// ErrBadParam reports an invalid distribution parameter.
var ErrBadParam = errors.New("dist: invalid parameter")

// checkProb panics when q is not a probability. The distribution
// constructors validate their parameters and return errors; Quantile is
// used in hot inner loops, so a programming error (q outside [0,1])
// panics instead.
func checkProb(q float64) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("dist: quantile argument %v outside [0,1]", q))
	}
}

// SampleN draws n variates from d into a new slice.
func SampleN(d Dist, r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// MeanVar computes the sample mean and unbiased sample variance of xs:
// the moments of both ECDF types, and the Monte-Carlo moments the tests
// compare against analytic ones. An empty slice yields (NaN, NaN); a
// singleton yields (x, 0).
func MeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) == 1 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1)
}

// invertCDF computes a quantile by bisecting the CDF over the bracket
// [lo, hi]. It is the shared fallback for distributions without a
// closed-form quantile (e.g. empirical mixtures).
func invertCDF(cdf func(float64) float64, q, lo, hi float64) float64 {
	checkProb(q)
	return Bisect(func(x float64) float64 { return cdf(x) - q }, lo, hi, 1e-12, 200)
}
