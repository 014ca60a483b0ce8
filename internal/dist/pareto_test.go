package dist_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/trace"
)

// powRef is the transform FromUniform must reproduce bit for bit.
func powRef(p dist.Pareto, u float64) float64 {
	return p.Xm / math.Pow(1-u, 1/p.Alpha)
}

// edgeUniforms are the inputs where Pow's special cases, the x ≥ 0
// guard or the ends of [0, 1) decide the result.
var edgeUniforms = []float64{
	0, math.Copysign(0, -1), 0x1p-53, 0.5, math.Nextafter(1, 0), 1, -1, 2,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// edgeShapes are the shapes that take the math.Pow fallback (y = 1/α
// outside (0, ½)), the first shape past it, and large and huge shapes
// whose y is tiny or subnormal.
var edgeShapes = []float64{
	0.5, 1, 2, math.Nextafter(2, 3), 5, 9.5, 1e6, 1e308,
	0, math.Copysign(0, -1), -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
}

// calibratedParetos returns both arrival components of every
// calibrated instance type: the shapes trace generation draws from.
func calibratedParetos(t *testing.T) []dist.Pareto {
	t.Helper()
	var out []dist.Pareto
	for _, spec := range instances.All() {
		c, err := trace.CalibrationFor(spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		xm, err := c.Provider.ParetoArrivalMin()
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{c.PlateauAlpha, c.TailAlpha} {
			p, err := dist.NewPareto(alpha, xm)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// TestFromUniformMatchesPow pins FromUniform's exp∘log fast path to
// the math.Pow transform it replaces: every calibrated shape against
// 10⁵ uniforms and the edge inputs, and the edge shapes (which
// exercise the fallback) against the same. Quantile, which is the
// same transform below q = 1, is held to it on every probability.
func TestFromUniformMatchesPow(t *testing.T) {
	const draws = 100_000
	r := rand.New(rand.NewSource(18))
	us := make([]float64, draws, draws+len(edgeUniforms))
	for i := range us {
		us[i] = r.Float64()
	}
	us = append(us, edgeUniforms...)

	ps := calibratedParetos(t)
	for _, alpha := range edgeShapes {
		ps = append(ps, dist.Pareto{Alpha: alpha, Xm: 0.75})
	}
	for _, p := range ps {
		for _, u := range us {
			got, want := p.FromUniform(u), powRef(p, u)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α=%v Xm=%v u=%v: FromUniform = %v (%#x), Xm/Pow = %v (%#x)",
					p.Alpha, p.Xm, u, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if u >= 0 && u < 1 {
				if q := p.Quantile(u); math.Float64bits(q) != math.Float64bits(want) {
					t.Fatalf("α=%v Xm=%v q=%v: Quantile = %v, Xm/Pow = %v", p.Alpha, p.Xm, u, q, want)
				}
			}
		}
	}
}

// FuzzFromUniformMatchesPow runs the equivalence over raw bit
// patterns of α and u; NaN matches NaN whatever its payload.
func FuzzFromUniformMatchesPow(f *testing.F) {
	for _, alpha := range append([]float64{2.5, 120}, edgeShapes...) {
		for _, u := range edgeUniforms {
			f.Add(math.Float64bits(alpha), math.Float64bits(u))
		}
	}
	f.Fuzz(func(t *testing.T, alphaBits, uBits uint64) {
		p := dist.Pareto{Alpha: math.Float64frombits(alphaBits), Xm: 1}
		u := math.Float64frombits(uBits)
		got, want := p.FromUniform(u), powRef(p, u)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("α=%v u=%v: FromUniform = %v, Xm/Pow = %v", p.Alpha, u, got, want)
		}
	})
}
