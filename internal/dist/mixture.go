package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Mixture is a finite weighted mixture of distributions. The
// reproduction's calibrated arrival process is a two-component Pareto
// mixture — a steep component that produces the dense price plateau
// real spot histories show at the floor, and a heavy-tailed component
// that produces the occasional price spikes (cf. Fig. 3's
// "power-law or exponential pattern" and the CDF knee of §4.3 fn. 6).
type Mixture struct {
	comps   []Dist
	weights []float64 // normalized, cumulative kept separately
	cum     []float64
}

// NewMixture builds a mixture from parallel slices of components and
// positive weights (normalized internally).
func NewMixture(comps []Dist, weights []float64) (*Mixture, error) {
	if len(comps) == 0 || len(comps) != len(weights) {
		return nil, fmt.Errorf("%w: mixture needs matching non-empty components (%d) and weights (%d)",
			ErrBadParam, len(comps), len(weights))
	}
	var total float64
	for _, w := range weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: mixture weight %v must be positive and finite", ErrBadParam, w)
		}
		total += w
	}
	m := &Mixture{
		comps:   append([]Dist(nil), comps...),
		weights: make([]float64, len(weights)),
		cum:     make([]float64, len(weights)),
	}
	acc := 0.0
	for i, w := range weights {
		m.weights[i] = w / total
		acc += w / total
		m.cum[i] = acc
	}
	m.cum[len(m.cum)-1] = 1 // guard rounding
	return m, nil
}

// PDF implements Dist.
func (m *Mixture) PDF(x float64) float64 {
	var s float64
	for i, c := range m.comps {
		s += m.weights[i] * c.PDF(x)
	}
	return s
}

// CDF implements Dist.
func (m *Mixture) CDF(x float64) float64 {
	var s float64
	for i, c := range m.comps {
		s += m.weights[i] * c.CDF(x)
	}
	return s
}

// Quantile implements Dist by bisecting the mixture CDF (no closed
// form exists in general).
func (m *Mixture) Quantile(q float64) float64 {
	checkProb(q)
	sup := m.Support()
	if q == 0 {
		return sup.Lo
	}
	if q == 1 {
		return sup.Hi
	}
	lo, hi := sup.Lo, sup.Hi
	if math.IsInf(hi, 1) {
		// Expand a finite bracket geometrically.
		hi = math.Max(lo, 1)
		for i := 0; i < 200 && m.CDF(hi) < q; i++ {
			hi = lo + 2*(hi-lo) + 1
		}
	}
	return invertCDF(m.CDF, q, lo, hi)
}

// Sample implements Dist in two draws: Pick's component for the first
// uniform, then that component's own Sample. A caller that splits the
// draw from the transform calls Pick and the component itself, in the
// same order.
func (m *Mixture) Sample(r *rand.Rand) float64 {
	i := m.Pick(r.Float64())
	return m.comps[i].Sample(r)
}

// Pick returns the index of the component a uniform u ∈ [0, 1)
// selects: the first whose cumulative weight reaches u.
func (m *Mixture) Pick(u float64) int {
	for i, c := range m.cum {
		if u <= c {
			return i
		}
	}
	return len(m.comps) - 1
}

// Mean implements Dist.
func (m *Mixture) Mean() float64 {
	var s float64
	for i, c := range m.comps {
		s += m.weights[i] * c.Mean()
	}
	return s
}

// Var implements Dist: E[X²] − E[X]² with component moments.
func (m *Mixture) Var() float64 {
	mean := m.Mean()
	var m2 float64
	for i, c := range m.comps {
		cm := c.Mean()
		m2 += m.weights[i] * (c.Var() + cm*cm)
	}
	return m2 - mean*mean
}

// Support implements Dist: the union hull of component supports.
func (m *Mixture) Support() Interval {
	iv := m.comps[0].Support()
	for _, c := range m.comps[1:] {
		s := c.Support()
		if s.Lo < iv.Lo {
			iv.Lo = s.Lo
		}
		if s.Hi > iv.Hi {
			iv.Hi = s.Hi
		}
	}
	return iv
}

// PartialMean implements the optional fast path used by
// dist.PartialMean: the mixture partial mean is the weighted sum of
// component partial means.
func (m *Mixture) PartialMean(p float64) float64 {
	var s float64
	for i, c := range m.comps {
		s += m.weights[i] * PartialMean(c, p)
	}
	return s
}

// Components returns the mixture's components and normalized weights
// (shared slices; callers must not modify).
func (m *Mixture) Components() ([]Dist, []float64) { return m.comps, m.weights }
