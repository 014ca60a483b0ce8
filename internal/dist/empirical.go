package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Empirical is the empirical distribution of a sample, the
// representation the bidding client builds from a spot-price history
// (Fig. 1's "price monitor"). It holds the sorted sample and its prefix
// sums, all that a bid reads: the CDF is the usual right-continuous
// ECDF, the quantile function uses linear interpolation between order
// statistics, matching the common "type 7" convention, and a partial
// mean is one search. The PDF, a histogram density, and the moments are
// computed from the sorted sample on each call.
type Empirical struct {
	xs     []float64 // sorted ascending
	prefix []float64 // prefix[i] = Σ xs[:i], for O(log n) partial means
	nbins  int       // the PDF's histogram bins; ≤ 0 selects the square-root rule
}

// errNoSample refuses an empty sample.
var errNoSample = fmt.Errorf("%w: empirical distribution needs at least one sample", ErrBadParam)

// NewEmpirical builds an empirical distribution from the sample xs,
// which it copies and sorts as Fill does (−0 before +0; see sort.go).
// The histogram used for PDF evaluation has nbins equal-width bins over
// [min, max]; nbins ≤ 0 selects a square-root rule automatically.
func NewEmpirical(xs []float64, nbins int) (*Empirical, error) {
	if len(xs) == 0 {
		return nil, errNoSample
	}
	runs, byRun, _, err := splitRuns(nil, xs)
	if err != nil {
		return nil, err
	}
	s := make([]float64, len(xs))
	// The prefix sums are written after the sort, so their room serves
	// as its scratch.
	prefix := make([]float64, len(xs)+1)
	sortSplit(s, xs, prefix[1:], runs, byRun, new([]valueRun))
	return newEmpiricalOwned(s, prefix, nbins), nil
}

// CheckSample reports whether x may enter an empirical sample: NaN and
// ±Inf are refused with ErrBadParam.
func CheckSample(x float64) error {
	if x-x == 0 { // false for NaN and ±Inf alone
		return nil
	}
	return badSample(x)
}

// badSample builds CheckSample's error out of line, so the check itself
// inlines into the per-sample loops.
//
//go:noinline
func badSample(x float64) error {
	return fmt.Errorf("%w: empirical sample contains %v", ErrBadParam, x)
}

// newEmpiricalOwned finishes construction from a sorted, validated
// sample the Empirical takes ownership of, and a prefix-sum array of
// len(s)+1 that it fills. NewEmpirical and WindowedECDF.Snapshot both
// funnel here so their results are element-identical for identical
// window contents.
func newEmpiricalOwned(s, prefix []float64, nbins int) *Empirical {
	prefixSums(prefix, s)
	return &Empirical{xs: s, prefix: prefix, nbins: nbins}
}

// prefixSums sets prefix[i] = Σ xs[:i] for every i ≤ len(xs); prefix
// must hold len(xs)+1 values. The running sum stays in a register, so
// each add waits only for the last add, not for its store, and it adds
// left to right, the order every caller's results are pinned to.
func prefixSums(prefix, xs []float64) {
	p := prefix[1 : len(xs)+1]
	prefix[0] = 0
	sum := 0.0
	for i, x := range xs {
		sum += x
		p[i] = sum
	}
}

// quantile is the type-7 quantile of the sorted sample xs: linear
// interpolation between order statistics at h = (n−1)q.
func quantile(xs []float64, q float64) float64 {
	checkProb(q)
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	h := float64(n-1) * q
	i := int(h)
	if i >= n-1 {
		return xs[n-1]
	}
	frac := h - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

// ecdfAt returns F(p) and the partial mean (1/n)·Σ_{x_i ≤ p} x_i of the
// sorted sample xs with prefix sums prefix, from one search: both are
// read off k = #{x_i ≤ p}, as k/n and prefix[k]/n.
func ecdfAt(xs, prefix []float64, p float64) (f, pm float64) {
	k := searchGT(xs, p)
	n := float64(len(xs))
	return float64(k) / n, prefix[k] / n
}

// histDensity is the PDF of both ECDF types: the density at x of the
// histogram of the sorted sample xs with nbins equal-width bins over
// [lo, hi] = [xs[0], xs[n−1]] (nbins ≤ 0: ⌈√n⌉ bins). Bin j holds the
// samples with ⌊(x_i − lo)/width⌋ = j, the last bin also those above,
// and x reads the bin below the first edge lo + j·width (the last edge
// exactly hi) not below it. A sample's bin never decreases along the
// sorted sample, so a bin's samples are one run of it, counted by two
// searches. A one-value sample has a single sliver-width bin around
// its value, so the density stays finite.
func histDensity(xs []float64, nbins int, x float64) float64 {
	n := len(xs)
	lo, hi := xs[0], xs[n-1]
	if hi == lo {
		w := math.Max(math.Abs(lo)*1e-9, 1e-12)
		if x < lo-w/2 || x > lo+w/2 {
			return 0
		}
		return 1 / w
	}
	if nbins <= 0 {
		nbins = int(math.Ceil(math.Sqrt(float64(n))))
	}
	width := (hi - lo) / float64(nbins)
	if x < lo || x > hi {
		return 0
	}
	// The last edge, hi, is not below x.
	j := max(sort.Search(nbins, func(j int) bool { return !(lo+float64(j)*width < x) })-1, 0)
	first := func(j int) int {
		return sort.Search(n, func(i int) bool { return min(int((xs[i]-lo)/width), nbins-1) >= j })
	}
	return float64(first(j+1)-first(j)) / (float64(n) * width)
}

// N reports the sample size.
func (e *Empirical) N() int { return len(e.xs) }

// Values returns the sorted sample (shared, callers must not modify).
func (e *Empirical) Values() []float64 { return e.xs }

// PDF implements Dist using the histogram density.
func (e *Empirical) PDF(x float64) float64 { return histDensity(e.xs, e.nbins, x) }

// CDF implements Dist with the right-continuous ECDF
// F(x) = #{x_i ≤ x}/n.
func (e *Empirical) CDF(x float64) float64 {
	return float64(searchGT(e.xs, x)) / float64(len(e.xs))
}

// Quantile implements Dist with linear interpolation between order
// statistics ("type 7": h = (n−1)q).
func (e *Empirical) Quantile(q float64) float64 { return quantile(e.xs, q) }

// Sample implements Dist by bootstrap resampling: a uniformly random
// element of the original sample.
func (e *Empirical) Sample(r *rand.Rand) float64 {
	return e.xs[r.Intn(len(e.xs))]
}

// Mean implements Dist with MeanVar's sample mean.
func (e *Empirical) Mean() float64 {
	m, _ := MeanVar(e.xs)
	return m
}

// Var implements Dist with MeanVar's unbiased sample variance.
func (e *Empirical) Var() float64 {
	_, v := MeanVar(e.xs)
	return v
}

// Support implements Dist.
func (e *Empirical) Support() Interval {
	return Interval{Lo: e.xs[0], Hi: e.xs[len(e.xs)-1]}
}

// PartialMean returns (1/n)·Σ_{x_i ≤ p} x_i, i.e. ∫_{−∞}^{p} x dF(x)
// for the empirical measure. The bidding formulas use it to evaluate
// the expected accepted price E[π | π ≤ p]·F(p) (Eq. 9) exactly
// against a price history, with no quadrature error.
func (e *Empirical) PartialMean(p float64) float64 {
	_, pm := ecdfAt(e.xs, e.prefix, p)
	return pm
}

// cdfPartialMean returns CDF(p) and PartialMean(p) from one search.
func (e *Empirical) cdfPartialMean(p float64) (f, pm float64) {
	return ecdfAt(e.xs, e.prefix, p)
}

// partialMeaner is the optional fast path used by PartialMean.
type partialMeaner interface {
	PartialMean(p float64) float64
}

// PartialMean computes ∫_{lo}^{p} x·f(x) dx where lo is the lower end
// of d's support — the building block of Eq. 9's conditional
// expectation. Distributions that can compute it exactly (Empirical)
// provide their own implementation; everything else falls back to
// adaptive quadrature.
func PartialMean(d Dist, p float64) float64 {
	if pm, ok := d.(partialMeaner); ok {
		return pm.PartialMean(p)
	}
	sup := d.Support()
	lo := sup.Lo
	if p <= lo {
		return 0
	}
	hi := math.Min(p, sup.Hi)
	return Integrate(func(x float64) float64 { return x * d.PDF(x) }, lo, hi, 1e-12)
}

// cdfPartialMeaner is the one-search fast path used by CDFPartialMean.
type cdfPartialMeaner interface {
	cdfPartialMean(p float64) (f, pm float64)
}

// CDFPartialMean returns d.CDF(p) and PartialMean(d, p), bit for bit
// what the two calls return. An Empirical or a WindowedECDF reads both
// off one search of its sorted sample, where the two calls make two;
// every other distribution makes the two calls. Every evaluation of
// the Prop. 4/5 cost and of ψ needs both values at the same bid.
func CDFPartialMean(d Dist, p float64) (f, pm float64) {
	if j, ok := d.(cdfPartialMeaner); ok {
		return j.cdfPartialMean(p)
	}
	return d.CDF(p), PartialMean(d, p)
}

// ConditionalMean computes E[X | X ≤ p] = PartialMean(p)/CDF(p)
// (Eq. 9). It returns NaN when CDF(p) = 0 (the condition has
// probability zero).
func ConditionalMean(d Dist, p float64) float64 {
	c := d.CDF(p)
	if c == 0 {
		return math.NaN()
	}
	return PartialMean(d, p) / c
}
