package dist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// windowOf reproduces the logical window contents of w from the raw
// stream: the trailing min(len(stream), cap) values.
func windowOf(stream []float64, capacity int) []float64 {
	if len(stream) > capacity {
		return stream[len(stream)-capacity:]
	}
	return stream
}

// assertElementIdentical compares every query surface of the windowed
// monitor against a fresh NewEmpirical over the same window and demands
// exact equality — the acceptance contract: the incremental path must
// not move a single bit.
func assertElementIdentical(t *testing.T, w *WindowedECDF, window []float64, nbins int) {
	t.Helper()
	ref, err := NewEmpirical(window, nbins)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != ref.N() {
		t.Fatalf("N: windowed %d, reference %d", w.N(), ref.N())
	}
	if !reflect.DeepEqual(w.Values(), ref.Values()) {
		t.Fatalf("sorted window differs:\n  windowed  %v\n  reference %v", w.Values(), ref.Values())
	}
	// DeepEqual compares floats with ==, which cannot tell −0 from +0.
	for i, x := range ref.Values() {
		if math.Float64bits(w.Values()[i]) != math.Float64bits(x) {
			t.Fatalf("sorted window bit %d: windowed %v, reference %v", i, w.Values()[i], x)
		}
	}
	if w.Support() != ref.Support() {
		t.Fatalf("Support: windowed %v, reference %v", w.Support(), ref.Support())
	}
	if w.Mean() != ref.Mean() || w.Var() != ref.Var() {
		t.Fatalf("moments: windowed (%v, %v), reference (%v, %v)",
			w.Mean(), w.Var(), ref.Mean(), ref.Var())
	}
	sup := ref.Support()
	probe := []float64{sup.Lo - 1, sup.Lo, (sup.Lo + sup.Hi) / 2, sup.Hi, sup.Hi + 1}
	probe = append(probe, window...)
	for _, x := range probe {
		if got, want := w.CDF(x), ref.CDF(x); got != want {
			t.Fatalf("CDF(%v): windowed %v, reference %v", x, got, want)
		}
		if got, want := w.PartialMean(x), ref.PartialMean(x); got != want {
			t.Fatalf("PartialMean(%v): windowed %v, reference %v", x, got, want)
		}
		if got, want := w.PDF(x), ref.PDF(x); got != want {
			t.Fatalf("PDF(%v): windowed %v, reference %v", x, got, want)
		}
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if got, want := w.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("Quantile(%v): windowed %v, reference %v", q, got, want)
		}
	}
	// The frozen snapshot must be indistinguishable from a reference
	// rebuild, including its cached moments, prefix sums, and histogram.
	snap, err := w.Snapshot(nbins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, ref) {
		t.Fatalf("Snapshot differs from NewEmpirical over the same window")
	}
}

// TestWindowedEquivalence drives k insert/evict steps over a random
// stream and checks the monitor is element-identical to a reference
// rebuild at every step, through warm-up, saturation, and eviction.
func TestWindowedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const capacity, steps = 64, 400
	for _, nbins := range []int{0, 7} {
		w, err := NewWindowedECDF(capacity, nbins)
		if err != nil {
			t.Fatal(err)
		}
		stream := make([]float64, 0, steps)
		for i := 0; i < steps; i++ {
			// Duplicates are common in spot-price traces (long dwell at
			// one price); quantize so the evict-one-of-many case is hit.
			x := math.Floor(rng.Float64()*20) / 20
			stream = append(stream, x)
			if err := w.Push(x); err != nil {
				t.Fatal(err)
			}
			assertElementIdentical(t, w, windowOf(stream, capacity), nbins)
		}
	}
}

// TestWindowedFill checks the bulk-load path agrees with a reference
// rebuild, truncates to the trailing window, and that pushes layered on
// a Fill stay equivalent.
func TestWindowedFill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const capacity = 32
	w, err := NewWindowedECDF(capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, capacity - 1, capacity, 3 * capacity} {
		stream := make([]float64, n)
		for i := range stream {
			stream[i] = rng.Float64()
		}
		if err := w.Fill(stream); err != nil {
			t.Fatal(err)
		}
		assertElementIdentical(t, w, windowOf(stream, capacity), 0)
		// Continue pushing past the fill.
		for i := 0; i < capacity+5; i++ {
			x := rng.Float64()
			stream = append(stream, x)
			if err := w.Push(x); err != nil {
				t.Fatal(err)
			}
		}
		assertElementIdentical(t, w, windowOf(stream, capacity), 0)
	}
}

// runStream returns n values in runs of 1 to maxRun equal values, each
// run's value drawn by level. It is the shape of a dwell-model price
// trace: one run per price level.
func runStream(rng *rand.Rand, n, maxRun int, level func() float64) []float64 {
	xs := make([]float64, 0, n)
	for len(xs) < n {
		v, k := level(), 1+rng.Intn(maxRun)
		for j := 0; j < k && len(xs) < n; j++ {
			xs = append(xs, v)
		}
	}
	return xs
}

// runCount is the number of runs of equal consecutive values in xs.
func runCount(xs []float64) int {
	runs := 0
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			runs++
		}
	}
	return runs
}

// TestWindowedFillRuns covers both branches of Fill on run-structured
// streams. Runs of 1–40 values take the run sort, with positive levels,
// negative levels, and levels that recur in several runs. A zero or −0
// anywhere in the window sends Fill to the plain sort. Every fill goes
// into one used window, as a recycled cell window is refilled, and the
// last refill is shorter than the window it replaces.
func TestWindowedFillRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const capacity = 1024
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		level  func() float64
		sparse bool
	}{
		{"positive levels", func() float64 { return 0.03 + rng.Float64() }, true},
		{"negative levels", func() float64 { return rng.NormFloat64() }, true},
		{"recurring levels", func() float64 { return math.Floor(rng.Float64()*8)/8 + 0.5 }, true},
		{"zeros", func() float64 { return []float64{0, negZero, 1.5, -2, 0.25}[rng.Intn(5)] }, false},
		{"negative zeros", func() float64 { return []float64{negZero, 3, -1}[rng.Intn(3)] }, false},
	}
	w, err := NewWindowedECDF(capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for _, n := range []int{capacity / 2, capacity, 3 * capacity, capacity / 3} {
			stream := runStream(rng, n, 40, c.level)
			window := windowOf(stream, capacity)
			w.runs = nil
			if err := w.Fill(stream); err != nil {
				t.Fatal(err)
			}
			if took := w.runs != nil; took != c.sparse {
				t.Fatalf("%s, %d values: run sort taken %v, want %v", c.name, n, took, c.sparse)
			}
			if c.sparse && len(w.runs) != runCount(window) {
				t.Fatalf("%s, %d values: %d runs sorted, window has %d", c.name, n, len(w.runs), runCount(window))
			}
			assertElementIdentical(t, w, window, 0)
		}
	}
}

// FuzzFillEquivalence decodes the input into a run-structured stream
// and fills one window twice, with the stream and then with its first
// half: after each fill, every query must equal NewEmpirical over the
// same trailing window, Values() bit for bit. Byte 0 sets the capacity;
// each later pair is a level (int8/4, 0x80 for −0) and a run length of
// 1–40.
func FuzzFillEquivalence(f *testing.F) {
	f.Add([]byte{32, 12, 17, 200, 3, 12, 9, 40, 39})
	f.Add([]byte{8, 0, 5, 0x80, 5, 7, 2})
	f.Add([]byte{255, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0})
	f.Add([]byte{1, 250, 39})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			t.Skip()
		}
		capacity := int(raw[0]) + 1
		var stream []float64
		for i := 1; i+1 < len(raw); i += 2 {
			v := float64(int8(raw[i])) / 4
			if raw[i] == 0x80 {
				v = math.Copysign(0, -1)
			}
			for j := 0; j <= int(raw[i+1])%40; j++ {
				stream = append(stream, v)
			}
		}
		w, err := NewWindowedECDF(capacity, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, xs := range [][]float64{stream, stream[:(len(stream)+1)/2]} {
			if err := w.Fill(xs); err != nil {
				t.Fatal(err)
			}
			assertElementIdentical(t, w, windowOf(xs, capacity), 0)
		}
	})
}

// TestWindowedRejectsBadSamples: NaN/Inf are rejected without
// perturbing the live window, matching NewEmpirical's validation.
func TestWindowedRejectsBadSamples(t *testing.T) {
	w, err := NewWindowedECDF(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Push(1.5); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := w.Push(bad); err == nil {
			t.Fatalf("Push(%v) accepted", bad)
		}
		if err := w.Fill([]float64{1, bad}); err == nil {
			t.Fatalf("Fill with %v accepted", bad)
		}
	}
	if err := w.Fill(nil); err == nil {
		t.Fatal("Fill(nil) accepted")
	}
	assertElementIdentical(t, w, []float64{1.5}, 0)
	if _, err := NewWindowedECDF(0, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// TestWindowedSnapshotIsolation: a retained snapshot must not change
// when the window keeps rolling.
func TestWindowedSnapshotIsolation(t *testing.T) {
	w, err := NewWindowedECDF(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 3} {
		if err := w.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := w.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), snap.Values()...)
	for _, x := range []float64{10, 20, 30} {
		if err := w.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(snap.Values(), before) {
		t.Fatalf("snapshot mutated by later pushes: %v != %v", snap.Values(), before)
	}
}

// TestNewEmpiricalFromSorted: same result as NewEmpirical, and unsorted
// input is rejected.
func TestNewEmpiricalFromSorted(t *testing.T) {
	xs := []float64{0.3, 0.1, 0.2, 0.1}
	ref, err := NewEmpirical(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEmpiricalFromSorted(ref.Values(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("NewEmpiricalFromSorted differs from NewEmpirical")
	}
	if _, err := NewEmpiricalFromSorted([]float64{2, 1}, 0); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if _, err := NewEmpiricalFromSorted(nil, 0); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := NewEmpiricalFromSorted([]float64{1, math.NaN()}, 0); err == nil {
		t.Fatal("NaN accepted")
	}
}

// TestEmpiricalMomentsCached: the satellite contract — Mean/Var are
// fixed at construction and exactly equal to MeanVar over the sorted
// sample.
func TestEmpiricalMomentsCached(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	e, err := NewEmpirical(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, v := MeanVar(e.Values())
	if e.Mean() != m || e.Var() != v {
		t.Fatalf("cached moments (%v, %v) != MeanVar over sorted sample (%v, %v)",
			e.Mean(), e.Var(), m, v)
	}
	// Repeated calls are stable.
	if e.Mean() != m || e.Var() != v {
		t.Fatal("moments changed across calls")
	}
}
