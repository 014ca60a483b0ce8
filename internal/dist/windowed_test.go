package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	// rebuild, prefix sums and histogram bin count included.
	snap, err := w.Snapshot()
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
			if err := w.Fill(stream); err != nil {
				t.Fatal(err)
			}
			if took := len(w.runs) != 0; took != c.sparse {
				t.Fatalf("%s, %d values: run sort taken %v, want %v", c.name, n, took, c.sparse)
			}
			if c.sparse && len(w.runs) != runCount(window) {
				t.Fatalf("%s, %d values: %d runs sorted, window has %d", c.name, n, len(w.runs), runCount(window))
			}
			assertElementIdentical(t, w, window, 0)
		}
	}
}

// nonFinite reports whether xs holds a NaN or an Inf.
func nonFinite(xs []float64) bool {
	return slices.ContainsFunc(xs, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
}

// iidStretch returns n level bytes whose consecutive levels differ, for
// a seed whose runs make splitRuns stop splitting: one byte per level
// when pairs is false, and each followed by a run byte of 0 (one value)
// when it is true. The levels are 1 to 15 times step, so none is zero,
// and with step 0x10 and 5 none is a reserved byte of either decoder.
func iidStretch(n int, step byte, pairs bool) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, step*byte(1+i%15))
		if pairs {
			out = append(out, 0)
		}
	}
	return out
}

// FuzzFillEquivalence decodes the input into a run-structured stream
// and fills one window twice, with the stream and then with its first
// half: after each fill, every query must equal NewEmpirical over the
// same trailing window, Values() bit for bit. A fill whose trailing
// window holds a NaN or an Inf must fail with ErrBadParam and leave
// the window as it was, and a fill whose window holds a zero must take
// the plain sort, which leaves the run buffer empty. Byte 0 sets the
// capacity: 1–240, and 512 from 0xf0 up, room for a stretch long
// enough that splitRuns stops splitting; each later pair is a level
// (int8/4, with 0x80 for −0, 0x7f for NaN, 0x7e for +Inf and 0x81 for
// −Inf) and a run length of 1–40.
func FuzzFillEquivalence(f *testing.F) {
	f.Add([]byte{32, 12, 17, 200, 3, 12, 9, 40, 39})
	f.Add([]byte{8, 0, 5, 0x80, 5, 7, 2})
	f.Add([]byte{255, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0})
	f.Add([]byte{1, 250, 39})
	// A bad value heading a run, and as the last value.
	f.Add([]byte{32, 12, 17, 0x7e, 3, 9, 40, 200, 2})
	f.Add([]byte{32, 12, 17, 200, 3, 9, 5, 0x81, 0})
	// An i.i.d. stretch long enough that the splitter stops splitting,
	// then a NaN or the stream's only zero, in a 512-value window.
	for _, late := range []byte{0x7f, 0} {
		seed := append([]byte{0xf1}, iidStretch(300, 5, true)...)
		seed = append(seed, late, 0)
		f.Add(append(seed, iidStretch(20, 5, true)...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			t.Skip()
		}
		capacity := int(raw[0]) + 1
		if raw[0] >= 0xf0 {
			capacity = 512
		}
		var stream []float64
		for i := 1; i+1 < len(raw); i += 2 {
			v := float64(int8(raw[i])) / 4
			switch raw[i] {
			case 0x80:
				v = math.Copysign(0, -1)
			case 0x7f:
				v = math.NaN()
			case 0x7e:
				v = math.Inf(1)
			case 0x81:
				v = math.Inf(-1)
			}
			for j := 0; j <= int(raw[i+1])%40; j++ {
				stream = append(stream, v)
			}
		}
		w, _ := NewWindowedECDF(capacity, 0)
		for _, xs := range [][]float64{stream, stream[:(len(stream)+1)/2]} {
			window := windowOf(xs, capacity)
			zero := slices.Contains(window, 0)
			before := *w
			before.ring, before.sorted = slices.Clone(w.ring), slices.Clone(w.sorted)
			err := w.Fill(xs)
			if nonFinite(window) {
				if !errors.Is(err, ErrBadParam) {
					t.Fatalf("Fill of a window holding a NaN or Inf: err %v, want ErrBadParam", err)
				}
				assertSameWindow(t, w, &before)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if zero && len(w.runs) != 0 {
				t.Fatalf("Fill of a window holding a zero took the run sort")
			}
			assertElementIdentical(t, w, window, 0)
		}
	})
}

// arrivals returns w's live samples, oldest first.
func arrivals(w *WindowedECDF) []float64 {
	out := make([]float64, w.n)
	for i := range out {
		out[i] = w.ring[(w.head+i)%w.capacity]
	}
	return out
}

// assertSameWindow demands that got holds what want holds: the same
// samples oldest to newest and the same sorted slice, both bit for bit,
// with the prefix sums dirty alike.
func assertSameWindow(t *testing.T, got, want *WindowedECDF) {
	t.Helper()
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if g, w := bits(arrivals(got)), bits(arrivals(want)); !slices.Equal(g, w) {
		t.Fatalf("arrival order differs:\n  slid   %v\n  pushed %v", arrivals(got), arrivals(want))
	}
	if g, w := bits(got.Values()), bits(want.Values()); !slices.Equal(g, w) {
		t.Fatalf("sorted window differs:\n  slid   %v\n  pushed %v", got.Values(), want.Values())
	}
	if got.dirtyPrefix != want.dirtyPrefix {
		t.Fatalf("prefix sums dirty: slid %v, pushed %v", got.dirtyPrefix, want.dirtyPrefix)
	}
}

// slideTwins slides batch into slid, which must edit its sorted slice
// in place, and Pushes it value by value into pushed, appends it to
// stream, and holds slid to pushed and, unless
// the stream has held both +0 and −0, both to NewEmpirical over the
// trailing window. Push evicts the first zero of the sorted slice
// whatever its sign, so a stream that mixes the two can leave a sorted
// slice whose zeros differ in sign from the ring's; Slide must match
// Push there too, but NewEmpirical sees only the ring. A batch holding
// a zero must go through Push, which leaves a nil value-sort scratch
// nil: with a single zero the merge would give the same bits.
func slideTwins(t *testing.T, slid, pushed *WindowedECDF, stream *[]float64, batch []float64) {
	t.Helper()
	backing := &slid.sorted[:1][0]
	zero := slices.Contains(batch, 0)
	if zero {
		slid.values = nil
	}
	if err := slid.Slide(batch); err != nil {
		t.Fatal(err)
	}
	if &slid.sorted[:1][0] != backing {
		t.Fatalf("Slide(%v) moved the sorted slice to a new array, not editing it in place", batch)
	}
	if zero && slid.values != nil {
		t.Fatalf("Slide(%v) sorted a batch holding a zero by value, not through Push", batch)
	}
	for _, x := range batch {
		if err := pushed.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	*stream = append(*stream, batch...)
	assertSameWindow(t, slid, pushed)
	if len(*stream) == 0 {
		return
	}
	pos, neg := false, false
	for _, x := range *stream {
		if x == 0 {
			pos, neg = pos || !math.Signbit(x), neg || math.Signbit(x)
		}
	}
	if !(pos && neg) {
		// Both twins answer the queries, so their prefix sums stay dirty
		// alike for the next comparison.
		for _, w := range []*WindowedECDF{slid, pushed} {
			assertElementIdentical(t, w, windowOf(*stream, w.Cap()), 0)
		}
	}
}

// TestWindowedSlide holds Slide to Push, value by value, on the cases
// its merge must get right: filling an empty window, the first
// evictions, batches of Cap and more (the Fill branch), runs of equal
// values on both sides of the merge, a value evicted and re-inserted in
// one batch, negatives, zeros of either sign in the batch or among the
// evicted samples (the Push fallback), a rejected batch, and batches
// sorted by run and by value. Every case reuses one window across its
// slides, as the quote grid does.
func TestWindowedSlide(t *testing.T) {
	const capacity = 16
	negZero := math.Copysign(0, -1)
	seq := func(lo, n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(lo + i)
		}
		return xs
	}
	cases := []struct {
		name    string
		batches [][]float64
	}{
		{"window not yet full", [][]float64{
			{0.5, 0.25, 0.75}, seq(0, 5, func(i int) float64 { return 1 + float64(i%3) }), {0.25, 0.25},
		}},
		{"first evictions", [][]float64{
			seq(0, 14, func(i int) float64 { return float64(i) + 0.5 }), seq(0, 5, func(i int) float64 { return 20 - float64(i) }),
			seq(0, 7, func(i int) float64 { return float64(i%2) + 0.125 }),
		}},
		{"batch of Cap and longer", [][]float64{
			seq(0, 9, func(i int) float64 { return float64(i) }), seq(0, capacity, func(i int) float64 { return 3 - float64(i)/4 }),
			seq(0, 3*capacity+5, func(i int) float64 { return float64(i%7) + 0.5 }), {2, 2, 2},
		}},
		{"runs straddling the merge", [][]float64{
			{1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 1, 1, 2, 2}, {1, 1, 1, 2, 2, 3, 3, 3},
			{3, 3, 1, 1, 1, 1, 1, 2, 2, 2}, {2, 1, 3, 2, 1},
		}},
		{"evicted and re-inserted", [][]float64{
			seq(0, capacity, func(i int) float64 { return float64(i) + 0.5 }), {0.5, 1.5, 2.5, 0.5}, {4.5, 9.5, 4.5},
		}},
		{"negatives", [][]float64{
			seq(0, 12, func(i int) float64 { return -float64(i%5) - 0.5 }), {-7, 3, -7, -0.5, 2},
			seq(0, 9, func(i int) float64 { return float64(i%3) - 1.25 }),
		}},
		{"zero in the batch", [][]float64{
			seq(0, 12, func(i int) float64 { return float64(i) + 1 }), {2, 0, 5, 0}, {0, 1, 0},
			seq(0, 10, func(i int) float64 { return float64(i%4) + 1 }),
		}},
		{"−0 among the evicted", [][]float64{
			{negZero, negZero, 3, negZero, -2}, seq(0, 11, func(i int) float64 { return float64(i%3) - 1.5 }),
			{4, 5, 6, 4}, {1, 2},
		}},
		{"mixed-sign zeros", [][]float64{
			{0, negZero, 1, negZero, 0}, seq(0, 12, func(i int) float64 { return float64(i) }), {negZero, 7, 0},
			seq(0, 14, func(i int) float64 { return float64(i%5) - 2 }), seq(0, 20, func(i int) float64 { return 1 }),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			slid, _ := NewWindowedECDF(capacity, 0)
			pushed, _ := NewWindowedECDF(capacity, 0)
			var stream []float64
			for _, b := range c.batches {
				slideTwins(t, slid, pushed, &stream, b)
			}
		})
	}

	t.Run("rejected batch", func(t *testing.T) {
		slid, _ := NewWindowedECDF(capacity, 0)
		pushed, _ := NewWindowedECDF(capacity, 0)
		var stream []float64
		slideTwins(t, slid, pushed, &stream, seq(0, 20, func(i int) float64 { return float64(i % 6) }))
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := slid.Slide([]float64{1, 2, bad, 3}); !errors.Is(err, ErrBadParam) {
				t.Fatalf("Slide with %v: err %v, want ErrBadParam", bad, err)
			}
			assertSameWindow(t, slid, pushed)
		}
		slideTwins(t, slid, pushed, &stream, []float64{4, 4, 1})
	})

	// Batches that evict nothing, each window starting empty.
	t.Run("no eviction", func(t *testing.T) {
		iid := func(i int) float64 { return float64((i*7)%11) - 2.5 }
		for _, batches := range [][][]float64{
			{{2, 2, 2, 1, 1, 3, 3, 3}},                // an empty window, a batch sorted by run
			{seq(0, 9, iid)},                          // an empty window, an i.i.d. batch
			{{0.5, 0.25, 0.75}, seq(3, 6, iid), {-9}}, // a part-full window
			{seq(0, 5, iid), seq(5, 11, func(i int) float64 { return float64(i % 3) })}, // filled to exactly Cap
			{{1, 2, 3}, {2, 0, -1, negZero}, {4, 4, 1}},                                 // a zero goes through Push
		} {
			slid, _ := NewWindowedECDF(capacity, 0)
			pushed, _ := NewWindowedECDF(capacity, 0)
			var stream []float64
			for _, b := range batches {
				slideTwins(t, slid, pushed, &stream, b)
			}
			if slid.N() != len(stream) {
				t.Fatalf("window holds %d samples, fed %d without eviction", slid.N(), len(stream))
			}
		}
	})

	// Batches alternate between runs of 1–6 equal values, which Slide
	// sorts by run, and single values, which it sorts one by one.
	t.Run("one window, varying lengths", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		slid, _ := NewWindowedECDF(capacity, 0)
		pushed, _ := NewWindowedECDF(capacity, 0)
		var stream []float64
		byRun := 0
		for i := 0; i < 200; i++ {
			n := rng.Intn(capacity + 4)
			if i%25 == 0 {
				n = 2*capacity + rng.Intn(capacity)
			}
			level := func() float64 { return float64(rng.Intn(9)-4) + 0.5 }
			batch := runStream(rng, n, 1+5*(i%2), level)
			if n >= 2 && n < capacity && runCount(batch)*minRunLength <= n {
				byRun++
			}
			slideTwins(t, slid, pushed, &stream, batch)
		}
		if byRun == 0 || slid.values == nil {
			t.Fatalf("both sorts must run: %d batches sorted by run, value sort taken %v", byRun, slid.values != nil)
		}
	})
}

// FuzzSlideEquivalence decodes a capacity and a sequence of batches,
// slides each batch into one window and Pushes it into another, and
// requires the two to hold the same samples, oldest to newest and
// sorted, bit for bit, and to match NewEmpirical over the trailing
// window (see slideTwins for streams that mix the signs of zero). A
// batch holding a NaN or an Inf must fail with ErrBadParam and leave
// the window as it was; the pushed twin skips it. Byte 0 sets the
// capacity: 1–64, and 8× that from 0x80 up. Each batch is a length
// byte, 0–95 values below 0xc0 and 8·(b−0xbf) from 0xc0 up, followed
// by that many value bytes, one of 16 levels from −3.75 to 3.75,
// except 0x08 for +0, 0x88 for −0, 0x09 for NaN, 0x0a for +Inf and
// 0x0b for −Inf.
func FuzzSlideEquivalence(f *testing.F) {
	f.Add([]byte{15, 20, 0x10, 0x10, 0x20, 0x20, 0x20, 0xf0, 0xf0, 0x10, 0x30, 0x30, 0x30, 0x30, 0x40, 0x40, 0x10, 0x10, 0x20, 0x20, 0x50, 0x50, 5, 0x10, 0x20, 0x10, 0x60, 0x60})
	f.Add([]byte{7, 3, 0x08, 0x10, 0x88, 12, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Add([]byte{3, 9, 0x90, 0xa0, 0xb0, 0x90, 0xa0, 0xb0, 0x90, 0xa0, 0xb0, 0, 2, 0x90, 0x90})
	// From an empty window, batches that evict nothing until one fills
	// it to exactly Cap, one of them holding a zero, then one that
	// evicts.
	f.Add([]byte{19, 4, 0x30, 0x30, 0x10, 0x10, 6, 0xa0, 0x20, 0x50, 0x20, 0xf0, 0x60,
		3, 0x40, 0x08, 0x10, 7, 0x70, 0x70, 0x70, 0x90, 0x90, 0x30, 0x30, 3, 0x10, 0x50, 0x50})
	f.Add([]byte{63, 2, 0x20, 0x10, 30, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x90, 0xa0, 0xb0,
		0xc0, 0xd0, 0xe0, 0xf0, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x90, 0xa0, 0xb0, 0xc0,
		0xd0, 0xe0, 0xf0, 0x10, 0x20})
	// After a batch that fills the window, a bad value heading a run,
	// then one as a batch's last value.
	f.Add([]byte{15, 16, 0x10, 0x10, 0x20, 0x20, 0x20, 0x30, 0x40, 0x40, 0x50, 0x60, 0x60, 0x70, 0x10, 0x10, 0x20, 0x30,
		8, 0x30, 0x30, 0x30, 0x0a, 0x0a, 0x20, 0x20, 0x40, 5, 0x50, 0x60, 0x10, 0x10, 0x0b})
	// A 304-value batch into a 384-value window, an i.i.d. stretch long
	// enough that the splitter stops splitting, then a NaN or the
	// stream's only zero.
	for _, late := range []byte{0x09, 0x08} {
		seed := append([]byte{0x80 + 47, 0xc0 + 37}, iidStretch(290, 0x10, false)...)
		f.Add(append(append(seed, late), iidStretch(13, 0x10, false)...))
	}
	// Into an 8-value window, a 20-value batch whose dropped lead of 12
	// holds a NaN, a zero, or a zero while the 8 it keeps hold a −0.
	for _, c := range []struct{ lead, kept byte }{{0x09, 0x50}, {0x08, 0x50}, {0x08, 0x88}} {
		f.Add([]byte{7, 5, 0x10, 0x20, 0x30, 0x20, 0x10,
			20, 0x30, 0x30, 0x40, c.lead, 0x50, 0x60, 0x60, 0x70, 0x10, 0x20, 0x20, 0x30,
			0x40, 0x40, 0x50, c.kept, 0x60, 0x70, 0x70, 0x10,
			3, 0x20, 0x30, 0x30})
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			t.Skip()
		}
		capacity := int(raw[0])%64 + 1
		if raw[0] >= 0x80 {
			capacity *= 8
		}
		slid, _ := NewWindowedECDF(capacity, 0)
		pushed, _ := NewWindowedECDF(capacity, 0)
		var stream []float64
		for i := 1; i < len(raw); {
			n := int(raw[i]) % 96
			if raw[i] >= 0xc0 {
				n = 8 * (int(raw[i]) - 0xbf)
			}
			i++
			batch := make([]float64, 0, n)
			for ; len(batch) < n && i < len(raw); i++ {
				v := float64(int8(raw[i])>>4)/2 + 0.25
				switch raw[i] {
				case 0x08:
					v = 0
				case 0x88:
					v = math.Copysign(0, -1)
				case 0x09:
					v = math.NaN()
				case 0x0a:
					v = math.Inf(1)
				case 0x0b:
					v = math.Inf(-1)
				}
				batch = append(batch, v)
			}
			if nonFinite(batch) {
				if err := slid.Slide(batch); !errors.Is(err, ErrBadParam) {
					t.Fatalf("Slide of a batch holding a NaN or Inf: err %v, want ErrBadParam", err)
				}
				assertSameWindow(t, slid, pushed)
				continue
			}
			slideTwins(t, slid, pushed, &stream, batch)
		}
	})
}

// BenchmarkWindowedSlide times one quote epoch of the lanes fleet's
// grid: 288 new prices into a full 2,880-slot window, as one Slide and
// as 288 Pushes, on a stream in runs of 1–35 equal values (mean 18, the
// calibrated dwell) and on an i.i.d. one.
func BenchmarkWindowedSlide(b *testing.B) {
	const capacity, batch = 2880, 288
	for _, c := range []struct {
		name   string
		maxRun int
	}{{"dwell18", 35}, {"iid", 1}} {
		rng := rand.New(rand.NewSource(1))
		stream := runStream(rng, capacity+100*batch, c.maxRun, func() float64 { return 0.03 + rng.Float64() })
		for _, slide := range []bool{true, false} {
			name := c.name + "/push"
			if slide {
				name = c.name + "/slide"
			}
			b.Run(name, func(b *testing.B) {
				w, _ := NewWindowedECDF(capacity, 0)
				next := len(stream)
				for i := 0; i < b.N; i++ {
					if next+batch > len(stream) {
						b.StopTimer()
						if err := w.Fill(stream[:capacity]); err != nil {
							b.Fatal(err)
						}
						next = capacity
						b.StartTimer()
					}
					xs := stream[next : next+batch]
					next += batch
					if slide {
						if err := w.Slide(xs); err != nil {
							b.Fatal(err)
						}
						continue
					}
					for _, x := range xs {
						if err := w.Push(x); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkWindowedFill times the §7.1 cell window build: a Fill of a
// two-month window, 17,568 prices, at the calibrated dwell of 18 slots
// and i.i.d., alone and with the first PartialMean, which builds the
// prefix sums as the cell's first bid does.
func BenchmarkWindowedFill(b *testing.B) {
	const capacity = 61 * 288
	for _, dwell := range []int{18, 1} {
		xs := sortPrices(capacity, dwell)
		for _, first := range []bool{false, true} {
			name := fmt.Sprintf("dwell%d/fill", dwell)
			if first {
				name += "+partialmean"
			}
			b.Run(name, func(b *testing.B) {
				w, _ := NewWindowedECDF(capacity, 0)
				for i := 0; i < b.N; i++ {
					if err := w.Fill(xs); err != nil {
						b.Fatal(err)
					}
					if first {
						_ = w.PartialMean(0.1)
					}
				}
			})
		}
	}
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
	snap, err := w.Snapshot()
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

// TestEmpiricalMomentsAreMeanVar: Mean and Var are exactly MeanVar over the
// sorted sample, on every call.
func TestEmpiricalMomentsAreMeanVar(t *testing.T) {
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
		t.Fatalf("moments (%v, %v) != MeanVar over sorted sample (%v, %v)",
			e.Mean(), e.Var(), m, v)
	}
	// Repeated calls are stable.
	if e.Mean() != m || e.Var() != v {
		t.Fatal("moments changed across calls")
	}
}

// TestCDFPartialMeanJointRead holds the one-search joint read to the
// two calls it replaces: on an Empirical and on a WindowedECDF,
// CDFPartialMean(d, p) must equal (d.CDF(p), PartialMean(d, p)) bit
// for bit at prices below, at, between and above the samples. The
// window is read first after every Push, Slide and Fill, while its
// prefix sums are dirty, so a read that skipped the refresh would see
// the previous window's sums.
func TestCDFPartialMeanJointRead(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	stream := runStream(rng, 900, 6, func() float64 { return float64(1+rng.Intn(40)) / 100 })
	check := func(what string, d Dist) {
		t.Helper()
		sup := d.Support()
		// The top of the support first: its partial mean is the window's
		// whole sum, which almost every mutation changes.
		ps := []float64{sup.Hi, sup.Lo, sup.Lo - 0.01, sup.Hi + 0.01, math.Inf(-1), math.Inf(1), math.NaN()}
		for q := 0.0; q <= 1; q += 0.0625 {
			ps = append(ps, d.Quantile(q), d.Quantile(q)+0.001)
		}
		for _, p := range ps {
			f, pm := CDFPartialMean(d, p)
			wf, wpm := d.CDF(p), PartialMean(d, p)
			if math.Float64bits(f) != math.Float64bits(wf) || math.Float64bits(pm) != math.Float64bits(wpm) {
				t.Fatalf("%s, p=%v: joint read (%v, %v), separate reads (%v, %v)", what, p, f, pm, wf, wpm)
			}
		}
	}
	w, err := NewWindowedECDF(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	next := func(k int) []float64 {
		pos += k
		return stream[pos-k : pos]
	}
	if err := w.Fill(next(150)); err != nil {
		t.Fatal(err)
	}
	check("after Fill", w)
	for i := 0; i < 80; i++ { // fills the window, then evicts
		if err := w.Push(next(1)[0]); err != nil {
			t.Fatal(err)
		}
		check("after Push", w)
	}
	for _, k := range []int{2, 7, 30, 199} {
		if err := w.Slide(next(k)); err != nil {
			t.Fatal(err)
		}
		check("after Slide", w)
	}
	if err := w.Fill(next(250)); err != nil {
		t.Fatal(err)
	}
	check("after a second Fill", w)
	e, err := NewEmpirical(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("Empirical", e)
	one, err := NewEmpirical([]float64{0.25}, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("one-sample Empirical", one)
}
