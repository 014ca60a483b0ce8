package dist

import (
	"math"
)

// Integrate computes ∫ f over [a, b] with adaptive Simpson quadrature
// to absolute tolerance tol. It is the work-horse behind the paper's
// expected-spot-price integral E[π | π ≤ p] = ∫ x·f_π(x) dx / F_π(p)
// (Eq. 9) when the distribution has no closed-form partial moment.
//
// The integrand must be finite on [a, b]. If a > b the result is the
// negated integral over [b, a]; if a == b the result is 0.
func Integrate(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	if a > b {
		return -Integrate(f, b, a, tol)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	fa, fb := f(a), f(b)
	m, fm, whole := simpsonStep(f, a, b, fa, fb)
	return adaptiveSimpson(f, a, b, fa, fb, m, fm, whole, tol, 50)
}

// simpsonStep evaluates one Simpson estimate over [a, b], returning the
// midpoint, the midpoint value, and the estimate.
func simpsonStep(f func(float64) float64, a, b, fa, fb float64) (m, fm, s float64) {
	m = (a + b) / 2
	fm = f(m)
	s = (b - a) / 6 * (fa + 4*fm + fb)
	return m, fm, s
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, m, fm, whole, tol float64, depth int) float64 {
	lm, flm, left := simpsonStep(f, a, m, fa, fm)
	rm, frm, right := simpsonStep(f, m, b, fm, fb)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return adaptiveSimpson(f, a, m, fa, fm, lm, flm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, fb, rm, frm, right, tol/2, depth-1)
}

// Bisect finds a root of f in [lo, hi] by bisection, returning a point
// x with |hi−lo| ≤ tol after at most maxIter halvings. When f(lo) and
// f(hi) have the same sign it returns the endpoint with the smaller
// |f|; the bid-optimization callers rely on this clamping behaviour —
// an FOC with no interior root means the optimum sits on the price
// boundary (p = π̲ or p = π̄).
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) float64 {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo
	}
	if fhi == 0 {
		return hi
	}
	if (flo > 0) == (fhi > 0) {
		if math.Abs(flo) <= math.Abs(fhi) {
			return lo
		}
		return hi
	}
	for i := 0; i < maxIter && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// HasRoot reports whether f changes sign over [lo, hi].
func HasRoot(f func(float64) float64, lo, hi float64) bool {
	flo, fhi := f(lo), f(hi)
	return flo == 0 || fhi == 0 || (flo > 0) != (fhi > 0)
}

// GoldenMin minimizes a unimodal function over [lo, hi] by
// golden-section search, returning the minimizing abscissa to within
// tol. The persistent-bid cost Φ_sp(p) is unimodal in the bid price
// (first decreasing, then increasing — Prop. 5's proof), which makes
// golden-section the right tool for the verification path.
func GoldenMin(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (√5 − 1)/2
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// GridMin evaluates f on n+1 evenly spaced points of [lo, hi] and
// returns the first abscissa with the smallest value.
//
// With nil steps it calls f at every point. That brute-force form is
// the oracle the test suite holds the closed-form and golden-section
// optima, and the steps form below, against.
//
// Non-nil steps are the sorted breakpoints of a step function, and f
// must depend on x only through k(x) = #{s ∈ steps : s ≤ x}, as a cost
// read off an ECDF does. While hi − lo ≥ 0, k never decreases from one
// point to the next, so GridMin tracks it by galloping forward from the
// previous point's count and calls f only where it changes. A point
// with its predecessor's k would return its predecessor's value, which
// the strict < rejects, so both forms return the same point and value
// bit for bit. Otherwise (lo > hi, or a NaN) GridMin ignores steps.
// The 401 points of a Prop. 5 grid cross 52–58 price levels of a
// 17,568-slot dwell-18 price window.
func GridMin(f func(float64) float64, lo, hi float64, n int, steps []float64) (xBest, fBest float64) {
	if n < 1 {
		n = 1
	}
	if !(hi-lo >= 0) {
		steps = nil // lo > hi, or a NaN: the points are not ordered
	}
	xBest, fBest = lo, f(lo)
	k := gallopGT(steps, 0, lo)
	for i := 1; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		if steps != nil {
			j := gallopGT(steps, k, x)
			if j == k {
				continue
			}
			k = j
		}
		if fx := f(x); fx < fBest {
			xBest, fBest = x, fx
		}
	}
	return xBest, fBest
}

// Linspace returns n evenly spaced points covering [lo, hi]
// (inclusive). n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("dist: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
