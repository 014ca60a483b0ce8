package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Empirical is the empirical distribution of a sample, the
// representation the bidding client builds from a spot-price history
// (Fig. 1's "price monitor"). The CDF is the usual right-continuous
// ECDF; the PDF is a histogram density; the quantile function uses
// linear interpolation between order statistics, matching the common
// "type 7" convention.
type Empirical struct {
	xs     []float64 // sorted ascending
	prefix []float64 // prefix[i] = Σ xs[:i], for O(log n) partial means
	bins   []float64 // histogram bin edges, len = nb+1
	dens   []float64 // histogram densities,  len = nb
	mean   float64   // sample mean, fixed at construction
	vari   float64   // unbiased sample variance, fixed at construction
}

// NewEmpirical builds an empirical distribution from the sample xs
// (which it copies and sorts, −0 before +0; see sort.go). The histogram
// used for PDF evaluation has nbins equal-width bins over [min, max];
// nbins ≤ 0 selects a square-root rule automatically.
func NewEmpirical(xs []float64, nbins int) (*Empirical, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: empirical distribution needs at least one sample", ErrBadParam)
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	for _, x := range s {
		if err := CheckSample(x); err != nil {
			return nil, err
		}
	}
	// The prefix sums are written after the sort, so their room serves
	// as its scratch.
	prefix := make([]float64, len(s)+1)
	sortFloats(s, prefix[1:])
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
// len(s)+1 whose first element is 0: prefix sums, cached moments,
// histogram. NewEmpirical and WindowedECDF.Snapshot both funnel here
// so their results are element-identical for identical window
// contents.
func newEmpiricalOwned(s, prefix []float64, nbins int) *Empirical {
	e := &Empirical{xs: s, prefix: prefix}
	prefixSums(prefix, s)
	e.mean, e.vari = MeanVar(s)
	e.bins, e.dens = histogramFor(s, nbins)
	return e
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

// histogramFor builds the equal-width histogram (bin edges + densities)
// for a sorted sample — shared by Empirical and WindowedECDF so both
// produce identical PDFs for identical windows. nbins ≤ 0 selects the
// square-root rule.
func histogramFor(xs []float64, nbins int) (bins, dens []float64) {
	bins, _, dens = histogramInto(xs, nbins, nil, nil, nil)
	return bins, dens
}

// histogramInto is histogramFor with caller-pooled buffers: each slice
// is reused when its capacity suffices and reallocated otherwise, so a
// WindowedECDF rebuilding its histogram every slot allocates only until
// the buffers reach the window's high-water size. The returned slices
// alias the inputs whenever possible. The bin-edge arithmetic below is
// element-identical to Linspace(lo, hi, nbins+1) — same step, same
// lo + i·step form, same exact-hi endpoint — which keeps pooled and
// fresh rebuilds bit-for-bit interchangeable.
func histogramInto(xs []float64, nbins int, bins []float64, counts []int, dens []float64) ([]float64, []int, []float64) {
	if nbins <= 0 {
		nbins = int(math.Ceil(math.Sqrt(float64(len(xs)))))
		if nbins < 1 {
			nbins = 1
		}
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if hi == lo {
		// Degenerate sample: one point mass. Use a single
		// sliver-width bin so the PDF stays finite.
		w := math.Max(math.Abs(lo)*1e-9, 1e-12)
		bins = growFloats(bins, 2)
		bins[0], bins[1] = lo-w/2, lo+w/2
		dens = growFloats(dens, 1)
		dens[0] = 1 / w
		return bins, counts[:0], dens
	}
	bins = growFloats(bins, nbins+1)
	step := (hi - lo) / float64(nbins)
	for i := range bins {
		bins[i] = lo + float64(i)*step
	}
	bins[nbins] = hi
	counts = growInts(counts, nbins)
	for i := range counts {
		counts[i] = 0
	}
	width := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	dens = growFloats(dens, nbins)
	n := float64(len(xs))
	for i, c := range counts {
		dens[i] = float64(c) / (n * width)
	}
	return bins, counts, dens
}

// growFloats reslices s to length n, reallocating only when its
// capacity is too small.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for []int.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// histPDF evaluates a histogram density at x — shared PDF kernel for
// Empirical and WindowedECDF.
func histPDF(bins, dens []float64, x float64) float64 {
	if x < bins[0] || x > bins[len(bins)-1] {
		return 0
	}
	// Branch-free binary search for the bin containing x: searchGE
	// returns the first index with bins[i] >= x.
	i := searchGE(bins, x)
	if i > 0 {
		i--
	}
	if i >= len(dens) {
		i = len(dens) - 1
	}
	return dens[i]
}

// N reports the sample size.
func (e *Empirical) N() int { return len(e.xs) }

// Values returns the sorted sample (shared, callers must not modify).
func (e *Empirical) Values() []float64 { return e.xs }

// PDF implements Dist using the histogram density.
func (e *Empirical) PDF(x float64) float64 { return histPDF(e.bins, e.dens, x) }

// CDF implements Dist with the right-continuous ECDF
// F(x) = #{x_i ≤ x}/n.
func (e *Empirical) CDF(x float64) float64 {
	// Index of first element > x, resolved branch-free.
	return float64(searchGT(e.xs, x)) / float64(len(e.xs))
}

// Quantile implements Dist with linear interpolation between order
// statistics ("type 7": h = (n−1)q).
func (e *Empirical) Quantile(q float64) float64 {
	checkProb(q)
	n := len(e.xs)
	if n == 1 {
		return e.xs[0]
	}
	h := float64(n-1) * q
	i := int(h)
	if i >= n-1 {
		return e.xs[n-1]
	}
	frac := h - float64(i)
	return e.xs[i] + frac*(e.xs[i+1]-e.xs[i])
}

// Sample implements Dist by bootstrap resampling: a uniformly random
// element of the original sample.
func (e *Empirical) Sample(r *rand.Rand) float64 {
	return e.xs[r.Intn(len(e.xs))]
}

// Mean implements Dist. The sample mean is computed once at
// construction (the sample is immutable), not on every call.
func (e *Empirical) Mean() float64 { return e.mean }

// Var implements Dist. Like Mean, fixed at construction.
func (e *Empirical) Var() float64 { return e.vari }

// Support implements Dist.
func (e *Empirical) Support() Interval {
	return Interval{Lo: e.xs[0], Hi: e.xs[len(e.xs)-1]}
}

// PartialMean returns (1/n)·Σ_{x_i ≤ p} x_i, i.e. ∫_{−∞}^{p} x dF(x)
// for the empirical measure. The bidding formulas use it to evaluate
// the expected accepted price E[π | π ≤ p]·F(p) (Eq. 9) exactly
// against a price history, with no quadrature error.
func (e *Empirical) PartialMean(p float64) float64 {
	return e.prefix[searchGT(e.xs, p)] / float64(len(e.xs))
}

// cdfPartialMean returns CDF(p) and PartialMean(p) from one search:
// both are read off k = #{x_i ≤ p}, as k/n and prefix[k]/n.
func (e *Empirical) cdfPartialMean(p float64) (f, pm float64) {
	k := searchGT(e.xs, p)
	n := float64(len(e.xs))
	return float64(k) / n, e.prefix[k] / n
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
