package dist

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
)

// Pareto is the Pareto (power-law) distribution
//
//	f_Λ(Λ) = α·Λ_min^α / Λ^(α+1), Λ ≥ Λ_min,
//
// the paper's primary model for the arrival process Λ(t) (Fig. 3 fits
// shape parameters α between 5 and 9.5). A heavy-but-integrable tail
// (α > 1 gives a finite mean, α > 2 a finite variance) is what makes
// the derived spot-price PDF decrease monotonically — the property
// Prop. 5's bid optimization relies on.
type Pareto struct {
	// Alpha is the shape parameter α. Must be positive.
	Alpha float64
	// Xm is the scale parameter Λ_min (minimum value). Must be
	// positive.
	Xm float64
}

// NewPareto returns a Pareto distribution with shape alpha and minimum
// xm.
func NewPareto(alpha, xm float64) (Pareto, error) {
	if !(alpha > 0) || math.IsInf(alpha, 0) || math.IsNaN(alpha) {
		return Pareto{}, fmt.Errorf("%w: pareto shape %v", ErrBadParam, alpha)
	}
	if !(xm > 0) || math.IsInf(xm, 0) || math.IsNaN(xm) {
		return Pareto{}, fmt.Errorf("%w: pareto minimum %v", ErrBadParam, xm)
	}
	return Pareto{Alpha: alpha, Xm: xm}, nil
}

// PDF implements Dist.
func (p Pareto) PDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return p.Alpha * math.Pow(p.Xm, p.Alpha) / math.Pow(x, p.Alpha+1)
}

// CDF implements Dist.
func (p Pareto) CDF(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Quantile implements Dist: Λ_min/(1−q)^(1/α) for q < 1, computed
// by FromUniform, and +Inf at q = 1.
func (p Pareto) Quantile(q float64) float64 {
	checkProb(q)
	if q == 1 {
		return math.Inf(1)
	}
	return p.FromUniform(q)
}

// Sample implements Dist (inverse-transform): one uniform from r,
// mapped through FromUniform. The split lets a caller draw the uniform
// now and pay for the transform later, or never, with the same bits.
func (p Pareto) Sample(r *rand.Rand) float64 {
	return p.FromUniform(r.Float64())
}

// FromUniform maps a uniform u ∈ [0, 1) to the Pareto variate
// Λ_min/(1−u)^(1/α): the arithmetic of Sample without the draw. It
// returns Xm / math.Pow(1−u, 1/α) bit for bit, for every u and α.
//
// For y = 1/α with 0 < y < ½ and x = 1−u ≥ 0 (every calibrated shape
// is above 2), it computes x^y as math.Exp(y·math.Log(x)), which is
// exactly what math.Pow computes for such y. Pow's special cases that
// can fire (x = 0, x = 1, x = +Inf) return what exp∘log returns;
// math.Modf(y) gives (0, y), so the integer-power loop does not run;
// and the closing math.Ldexp(·, 0) is the identity, since y·log x
// lies in (−373, 355) and the result is normal, 0 or +Inf. Skipping
// that bookkeeping takes about 40% off a draw. math.Pow is
// that pure-Go code on every GOARCH except s390x, whose Pow is
// assembly, so there every draw goes through math.Pow. Any other α or
// u, including NaN, ±Inf and u > 1, also takes math.Pow.
func (p Pareto) FromUniform(u float64) float64 {
	y := 1 / p.Alpha
	if x := 1 - u; powIsExpLog && y > 0 && y < 0.5 && x >= 0 {
		return p.Xm / math.Exp(y*math.Log(x))
	}
	return p.Xm / math.Pow(1-u, y)
}

// powIsExpLog reports whether math.Pow is Go's pure-Go pow, whose
// result for 0 < y < ½ and x ≥ 0 is math.Exp(y·math.Log(x)).
const powIsExpLog = runtime.GOARCH != "s390x"

// Mean implements Dist. Infinite for α ≤ 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Var implements Dist. Infinite for α ≤ 2.
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

// Support implements Dist.
func (p Pareto) Support() Interval {
	return Interval{Lo: p.Xm, Hi: math.Inf(1)}
}

// PartialMean implements the optional closed-form fast path used by
// dist.PartialMean:
//
//	∫_{Λ_min}^{x} t f(t) dt = α/(α−1)·(Λ_min − Λ_min^α·x^{1−α}), α ≠ 1.
func (p Pareto) PartialMean(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	if p.Alpha == 1 {
		return p.Xm * math.Log(x/p.Xm)
	}
	a := p.Alpha
	return a / (a - 1) * (p.Xm - math.Pow(p.Xm, a)*math.Pow(x, 1-a))
}
