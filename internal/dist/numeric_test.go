package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestIntegratePolynomial(t *testing.T) {
	// ∫₀¹ x² dx = 1/3; Simpson is exact for cubics.
	got := Integrate(func(x float64) float64 { return x * x }, 0, 1, 1e-12)
	if math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("∫x² = %v", got)
	}
	// ∫₀^π sin = 2
	got = Integrate(math.Sin, 0, math.Pi, 1e-10)
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("∫sin = %v", got)
	}
}

func TestIntegrateOrientation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if got := Integrate(f, 1, 0, 1e-10); math.Abs(got+0.5) > 1e-10 {
		t.Errorf("reversed integral = %v, want -0.5", got)
	}
	if got := Integrate(f, 2, 2, 1e-10); got != 0 {
		t.Errorf("empty integral = %v", got)
	}
}

func TestIntegrateSharpPeak(t *testing.T) {
	// Narrow Gaussian bump: adaptive refinement must find it.
	f := func(x float64) float64 {
		d := (x - 0.3) / 0.01
		return math.Exp(-d * d / 2)
	}
	want := 0.01 * math.Sqrt(2*math.Pi) // total mass, tails negligible
	got := Integrate(f, 0, 1, 1e-12)
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("peak integral = %v, want %v", got, want)
	}
}

func TestIntegrateDefaultTolerance(t *testing.T) {
	got := Integrate(func(x float64) float64 { return x }, 0, 1, 0)
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("integral with tol=0 fallback = %v", got)
	}
}

func TestBisectFindsRoot(t *testing.T) {
	root := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12, 200)
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want √2", root)
	}
	// Exact hits at endpoints.
	if got := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-12, 100); got != 0 {
		t.Errorf("root at lo: %v", got)
	}
	if got := Bisect(func(x float64) float64 { return x - 1 }, 0, 1, 1e-12, 100); got != 1 {
		t.Errorf("root at hi: %v", got)
	}
}

func TestBisectClampsWithoutSignChange(t *testing.T) {
	// f > 0 everywhere and decreasing: nearest endpoint is hi.
	f := func(x float64) float64 { return 2 - x }
	if got := Bisect(f, 0, 1, 1e-12, 100); got != 1 {
		t.Errorf("clamp = %v, want 1", got)
	}
	// f > 0 everywhere and increasing: nearest endpoint is lo.
	g := func(x float64) float64 { return 1 + x }
	if got := Bisect(g, 0, 1, 1e-12, 100); got != 0 {
		t.Errorf("clamp = %v, want 0", got)
	}
}

func TestHasRoot(t *testing.T) {
	if !HasRoot(func(x float64) float64 { return x - 0.5 }, 0, 1) {
		t.Error("missed sign change")
	}
	if HasRoot(func(x float64) float64 { return x + 1 }, 0, 1) {
		t.Error("claimed root where none exists")
	}
	if !HasRoot(func(x float64) float64 { return x }, 0, 1) {
		t.Error("missed root at endpoint")
	}
}

func TestGoldenMin(t *testing.T) {
	x := GoldenMin(func(x float64) float64 { return (x - 0.37) * (x - 0.37) }, 0, 1, 1e-10)
	if math.Abs(x-0.37) > 1e-8 {
		t.Errorf("minimizer = %v, want 0.37", x)
	}
	// Minimum at a boundary.
	x = GoldenMin(func(x float64) float64 { return x }, 2, 5, 1e-10)
	if math.Abs(x-2) > 1e-6 {
		t.Errorf("boundary minimizer = %v, want 2", x)
	}
}

func TestGridMin(t *testing.T) {
	x, fx := GridMin(func(x float64) float64 { return math.Abs(x - 0.5) }, 0, 1, 1000, nil)
	if math.Abs(x-0.5) > 1e-3 || fx > 1e-3 {
		t.Errorf("GridMin = (%v, %v)", x, fx)
	}
	x, _ = GridMin(func(x float64) float64 { return x }, 3, 4, 0, nil)
	if x != 3 {
		t.Errorf("GridMin n<1 = %v", x)
	}
}

// FuzzGridMinSteps holds GridMin's step form to its brute-force form.
// For an f that depends on x only through k(x), the count of
// breakpoints ≤ x, GridMin with the breakpoints must return the point
// and value GridMin with nil steps returns, bit for bit, and call f at
// most once per count. The breakpoints are sorted with repeats; lo and
// hi fall below, inside or above them, and f takes few values, so the
// first of several minima must win.
func FuzzGridMinSteps(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), 0.5, 2.5, uint16(400))        // one breakpoint
	f.Add(int64(2), uint16(50), uint16(0), 0.5, 2.5, uint16(400))       // all breakpoints equal
	f.Add(int64(3), uint16(300), uint16(20), 1.25, 1.25, uint16(400))   // lo == hi
	f.Add(int64(4), uint16(300), uint16(20), 1.1, 1.8, uint16(999))     // lo and hi inside
	f.Add(int64(5), uint16(300), uint16(20), -1.0, 0.5, uint16(13))     // both below
	f.Add(int64(6), uint16(300), uint16(20), 2.5, 3.0, uint16(7))       // both above
	f.Add(int64(7), uint16(1999), uint16(63), 0.9, 2.1, uint16(400))    // lo below, hi above
	f.Add(int64(8), uint16(120), uint16(4095), 0.9, 2.1, uint16(400))   // mostly distinct breakpoints
	f.Add(int64(9), uint16(1500), uint16(4000), 1.2, 1.3, uint16(1000)) // one count per point or two
	f.Fuzz(func(t *testing.T, seed int64, size, levels uint16, lo, hi float64, n uint16) {
		if lo > hi {
			lo, hi = hi, lo
		}
		if !(hi-lo >= 0) {
			return // a NaN bound, or lo == hi == ±Inf: the points are not ordered
		}
		r := rand.New(rand.NewSource(seed))
		nl := int(levels)%4096 + 1
		steps := make([]float64, int(size)%2000+1)
		for i := range steps {
			steps[i] = 1 + float64(r.Intn(nl))/float64(nl)
		}
		sort.Float64s(steps)
		vals := make([]float64, len(steps)+1)
		for i := range vals {
			vals[i] = float64(r.Intn(4))
		}
		count := func(x float64) int { // #{s ≤ x}: none for a NaN point, as searchGT counts
			return sort.Search(len(steps), func(i int) bool { return !(steps[i] <= x) })
		}
		calls := map[int]int{}
		points := int(n)%1000 + 1
		wantX, wantF := GridMin(func(x float64) float64 { return vals[count(x)] }, lo, hi, points, nil)
		gotX, gotF := GridMin(func(x float64) float64 {
			k := count(x)
			calls[k]++
			return vals[k]
		}, lo, hi, points, steps)
		if math.Float64bits(gotX) != math.Float64bits(wantX) || math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Fatalf("GridMin over [%v, %v], n=%d: steps form (%v, %v), brute force (%v, %v)",
				lo, hi, points, gotX, gotF, wantX, wantF)
		}
		for k, c := range calls {
			if c > 1 {
				t.Fatalf("GridMin over [%v, %v], n=%d: f called %d times at count %d", lo, hi, points, c, k)
			}
		}
	})
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Linspace(0,1,1) did not panic")
		}
	}()
	Linspace(0, 1, 1)
}

func TestQuantilePanicsOutsideUnit(t *testing.T) {
	u, _ := NewUniform(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("Quantile(-0.1) did not panic")
		}
	}()
	u.Quantile(-0.1)
}
