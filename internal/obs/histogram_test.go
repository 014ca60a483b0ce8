package obs

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramObserveEdgeCases is the table-driven edge-case suite:
// non-finite observations, exact bucket-boundary values, and values
// beyond the last bound. Bounds are upper-inclusive ("le"), NaN and
// −Inf are rejected, +Inf lands in the overflow bucket.
func TestHistogramObserveEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 5}
	cases := []struct {
		name       string
		x          float64
		wantBucket int // index into counts (len(bounds) = overflow); −1 = rejected
		inSum      bool
	}{
		{"below first bound", 0.5, 0, true},
		{"exactly first bound", 1, 0, true},
		{"just above first bound", math.Nextafter(1, 2), 1, true},
		{"exactly middle bound", 2, 1, true},
		{"interior", 3, 2, true},
		{"exactly last bound", 5, 2, true},
		{"just above last bound", math.Nextafter(5, 6), 3, true},
		{"far overflow", 1e9, 3, true},
		{"negative value", -7, 0, true}, // finite: bins low, sums
		{"zero", 0, 0, true},
		{"+Inf routed to overflow", math.Inf(1), 3, false},
		{"NaN rejected", math.NaN(), -1, false},
		{"-Inf rejected", math.Inf(-1), -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New()
			h := r.Histogram("h", bounds)
			h.Observe(tc.x)
			snap := h.snap("h")
			if tc.wantBucket < 0 {
				if snap.Rejected != 1 || snap.Count != 0 {
					t.Fatalf("rejected = %d, count = %d; want 1, 0", snap.Rejected, snap.Count)
				}
				return
			}
			if snap.Rejected != 0 || snap.Count != 1 {
				t.Fatalf("rejected = %d, count = %d; want 0, 1", snap.Rejected, snap.Count)
			}
			for i, c := range snap.Counts {
				want := int64(0)
				if i == tc.wantBucket {
					want = 1
				}
				if c != want {
					t.Fatalf("bucket %d count = %d, want %d (counts %v)", i, c, want, snap.Counts)
				}
			}
			if tc.inSum {
				if snap.Sum != tc.x {
					t.Fatalf("sum = %v, want %v", snap.Sum, tc.x)
				}
				if snap.FiniteCount != 1 || snap.Min != tc.x || snap.Max != tc.x {
					t.Fatalf("finite aggregates = (%d, %v, %v), want (1, %v, %v)",
						snap.FiniteCount, snap.Min, snap.Max, tc.x, tc.x)
				}
			} else if snap.FiniteCount != 0 || snap.Sum != 0 {
				t.Fatalf("non-finite observation leaked into aggregates: %+v", snap)
			}
		})
	}
}

// TestHistogramQuantileEdgeCases covers the empty histogram, the
// overflow bucket, and degenerate single-bucket data.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("empty histogram returns NaN", func(t *testing.T) {
		h := New().Histogram("h", []float64{1, 2})
		for _, q := range []float64{0, 0.5, 1} {
			if got := h.Quantile(q); !math.IsNaN(got) {
				t.Fatalf("Quantile(%v) on empty histogram = %v, want NaN", q, got)
			}
		}
	})
	t.Run("nil histogram returns NaN", func(t *testing.T) {
		var h *Histogram
		if got := h.Quantile(0.5); !math.IsNaN(got) {
			t.Fatalf("nil Quantile = %v, want NaN", got)
		}
	})
	t.Run("out-of-range q panics", func(t *testing.T) {
		h := New().Histogram("h", []float64{1})
		h.Observe(0.5)
		defer func() {
			if recover() == nil {
				t.Fatal("Quantile(1.5) did not panic")
			}
		}()
		h.Quantile(1.5)
	})
	t.Run("quantiles bracket the data", func(t *testing.T) {
		h := New().Histogram("h", []float64{1, 2, 5, 10})
		for _, x := range []float64{0.5, 1.5, 1.5, 3, 4, 6, 7, 8, 9, 9.5} {
			h.Observe(x)
		}
		if q0 := h.Quantile(0); q0 < 0.5 || q0 > 1 {
			t.Fatalf("Quantile(0) = %v, want within first bucket [0.5, 1]", q0)
		}
		if q1 := h.Quantile(1); q1 < 5 || q1 > 10 {
			t.Fatalf("Quantile(1) = %v, want within last data bucket (5, 10]", q1)
		}
		med := h.Quantile(0.5)
		if med < 1 || med > 5 {
			t.Fatalf("median = %v, want in [1, 5]", med)
		}
		// Monotone in q.
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("quantile not monotone: Q(%v) = %v < %v", q, v, prev)
			}
			prev = v
		}
	})
	t.Run("overflow-only data returns max finite", func(t *testing.T) {
		h := New().Histogram("h", []float64{1})
		h.Observe(100)
		h.Observe(250)
		if got := h.Quantile(0.99); got != 250 {
			t.Fatalf("overflow quantile = %v, want 250 (max observed)", got)
		}
	})
	t.Run("pure +Inf data falls back to last bound", func(t *testing.T) {
		h := New().Histogram("h", []float64{1, 7})
		h.Observe(math.Inf(1))
		if got := h.Quantile(0.5); got != 7 {
			t.Fatalf("quantile of +Inf-only histogram = %v, want 7", got)
		}
	})
	t.Run("degenerate single-value sample", func(t *testing.T) {
		h := New().Histogram("h", []float64{1, 2, 5})
		for i := 0; i < 10; i++ {
			h.Observe(1.5)
		}
		for _, q := range []float64{0, 0.5, 1} {
			got := h.Quantile(q)
			if got < 1.5 || got > 2 {
				t.Fatalf("Quantile(%v) = %v, want in [1.5, 2] (single-value data in bucket (1,2])", q, got)
			}
		}
		if got := h.Mean(); got != 1.5 {
			t.Fatalf("mean = %v, want 1.5", got)
		}
	})
}

// TestHistogramMixedRejection: rejected observations never perturb the
// binned statistics around them.
func TestHistogramMixedRejection(t *testing.T) {
	h := New().Histogram("h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(math.NaN())
	h.Observe(1.5)
	h.Observe(math.Inf(-1))
	h.Observe(math.Inf(1))
	snap := h.snap("h")
	if snap.Count != 3 || snap.Rejected != 2 {
		t.Fatalf("count = %d rejected = %d, want 3, 2", snap.Count, snap.Rejected)
	}
	if snap.Sum != 2.0 || snap.FiniteCount != 2 {
		t.Fatalf("sum = %v finiteCount = %d, want 2.0, 2", snap.Sum, snap.FiniteCount)
	}
	if snap.Min != 0.5 || snap.Max != 1.5 {
		t.Fatalf("min/max = %v/%v, want 0.5/1.5", snap.Min, snap.Max)
	}
}

// TestHistogramObserveBatchMatchesLoop checks the single-lock bulk
// path produces exactly the state of one Observe call per element,
// including rejection and overflow handling between finite values, at
// the start of a batch and across two batches — and that nil and empty
// inputs are no-ops.
func TestHistogramObserveBatchMatchesLoop(t *testing.T) {
	bounds := []float64{1, 2, 5}
	xs := []float64{math.NaN(), math.Inf(1), 0.5, 1, 2, 3, 5, 7, -4, 0, 1e9,
		math.Inf(1), math.NaN(), math.Inf(-1), 0.25, 9}
	loop := New().Histogram("h", bounds)
	for _, x := range xs {
		loop.Observe(x)
	}
	batch := New().Histogram("h", bounds)
	batch.ObserveBatch(xs[:7])
	batch.ObserveBatch(xs[7:])
	a, b := loop.snap("h"), batch.snap("h")
	if a.Count != b.Count || a.Rejected != b.Rejected || a.Sum != b.Sum ||
		a.Min != b.Min || a.Max != b.Max || a.FiniteCount != b.FiniteCount {
		t.Errorf("batch snap %+v != loop snap %+v", b, a)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Errorf("bucket %d: batch %d != loop %d", i, b.Counts[i], a.Counts[i])
		}
	}
	batch.ObserveBatch(nil)
	if got := batch.Count(); got != a.Count {
		t.Errorf("empty batch changed count to %d", got)
	}
	var nilH *Histogram
	nilH.ObserveBatch(xs) // must not panic
}

// BenchmarkObserveBatch records a two-month window of i.i.d. prices,
// 17,568 values, into a price histogram in one batch, as recording a
// generated history does.
func BenchmarkObserveBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 61*288)
	for i := range xs {
		xs[i] = min(0.03*math.Pow(1-rng.Float64(), -1/2.5), 0.35)
	}
	h := New().Histogram("trace.price_usd", PriceBuckets)
	for i := 0; i < b.N; i++ {
		h.ObserveBatch(xs)
	}
}
