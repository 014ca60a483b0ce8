package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortSpecials are the values FuzzSortSample mixes into its samples:
// both zeros, subnormals, the extremes, and values whose keys differ
// only in the top digit.
var sortSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.03, -0.03, 0.35, 2, -2,
	math.Inf(1), math.Inf(-1),
}

// fuzzSample builds a sample of n values from seed: values with random
// bits (NaN excluded) or in a price-like range, the specials picked by
// palette, and repeats of the previous value, in proportions the seed
// also picks.
func fuzzSample(seed int64, n int, palette []byte) []float64 {
	rng := rand.New(rand.NewSource(seed))
	pRepeat, pSpecial := rng.Float64(), rng.Float64()
	xs := make([]float64, 0, n)
	for len(xs) < n {
		var x float64
		switch u := rng.Float64(); {
		case len(xs) > 0 && u < pRepeat/2:
			x = xs[len(xs)-1]
		case len(palette) > 0 && u < pRepeat/2+pSpecial/2:
			x = sortSpecials[int(palette[rng.Intn(len(palette))])%len(sortSpecials)]
		default:
			if x = math.Float64frombits(rng.Uint64()); math.IsNaN(x) {
				continue
			}
			if rng.Intn(2) == 0 { // a narrow range: the top digits agree
				x = 0.03 + 0.32*rng.Float64()
			}
		}
		xs = append(xs, x)
	}
	return xs
}

// assertSortedLike demands that got holds want's values in want's
// order: bit for bit when the sample has no zero, and under == with
// every −0 before every +0 when it has one.
func assertSortedLike(t *testing.T, what string, got, want []float64) {
	t.Helper()
	zero := slices.Contains(want, 0)
	for i := range want {
		if got[i] != want[i] || !zero && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d is %v, want %v", what, i, got[i], want[i])
		}
		if i > 0 && got[i] == 0 && math.Signbit(got[i]) && !math.Signbit(got[i-1]) && got[i-1] == 0 {
			t.Fatalf("%s: −0 at index %d after a +0", what, i)
		}
	}
}

// FuzzSortSample holds sortFloats and sortRuns, and their radix
// branches at every length, to sort.Float64s and slices.SortFunc: bit
// for bit on samples without a zero, and under == with −0 first on
// samples with one. The runs compare by value sequence and by their
// expansion into values.
func FuzzSortSample(f *testing.F) {
	// Sample lengths are n%(4·radixMin) + 1: radixMin−1, radixMin and
	// radixMin+1 here.
	f.Add(int64(1), uint16(radixMin-2), []byte{0, 1})
	f.Add(int64(2), uint16(radixMin-1), []byte{2, 3, 4, 5})
	f.Add(int64(3), uint16(radixMin), []byte{6, 7, 8, 9, 10, 11})
	f.Add(int64(4), uint16(3*radixMin), []byte{})
	f.Add(int64(5), uint16(40), []byte{0, 1, 6, 7, 15, 16})
	f.Add(int64(6), uint16(1), []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, palette []byte) {
		xs := fuzzSample(seed, int(n)%(4*radixMin)+1, palette)
		want := slices.Clone(xs)
		sort.Float64s(want)

		got := slices.Clone(xs)
		sortFloats(got, make([]float64, len(got)))
		assertSortedLike(t, "sortFloats", got, want)
		got = slices.Clone(xs)
		radixFloats(got, make([]float64, len(got)))
		assertSortedLike(t, "radixFloats", got, want)

		runs := appendRuns(nil, xs)
		wantRuns := slices.Clone(runs)
		slices.SortFunc(wantRuns, func(a, b valueRun) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		expand := func(rs []valueRun) (vs, all []float64) {
			for _, r := range rs {
				vs = append(vs, r.v)
				for k := 0; k < r.n; k++ {
					all = append(all, r.v)
				}
			}
			return vs, all
		}
		wantVs, wantAll := expand(wantRuns)
		for name, sortFn := range map[string]func(rs, buf []valueRun){"sortRuns": sortRuns, "radixRuns": radixRuns} {
			gotRuns := slices.Clone(runs)
			sortFn(gotRuns, make([]valueRun, len(gotRuns)))
			gotVs, gotAll := expand(gotRuns)
			assertSortedLike(t, name+" values", gotVs, wantVs)
			assertSortedLike(t, name+" expansion", gotAll, wantAll)
		}
	})
}

// sortPrices returns n two-month-window-like prices: i.i.d. levels on
// [0.03, 0.35) with a dense plateau at the floor, each held for runs
// of 1 to 2·dwell−1 slots (mean dwell); dwell 1 gives i.i.d. prices.
func sortPrices(n, dwell int) []float64 {
	rng := rand.New(rand.NewSource(1))
	return runStream(rng, n, 2*dwell-1, func() float64 {
		return min(0.03*math.Pow(1-rng.Float64(), -1/2.5), 0.35)
	})
}

// BenchmarkSortCrossover times the comparison sorts against the radix
// branches at 64–4,096 elements: i.i.d. prices, dwell-18 prices, and
// the runs of a dwell-18 stream. radixMin is read off it.
func BenchmarkSortCrossover(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024, 4096} {
		for _, dwell := range []int{1, 18} {
			xs := sortPrices(n, dwell)
			buf, work := make([]float64, n), make([]float64, n)
			b.Run(fmt.Sprintf("values/dwell%d/n=%d/pdq", dwell, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(work, xs)
					slices.Sort(work)
				}
			})
			b.Run(fmt.Sprintf("values/dwell%d/n=%d/radix", dwell, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(work, xs)
					radixFloats(work, buf)
				}
			})
		}
		runs := appendRuns(nil, sortPrices(18*n, 18))[:n]
		rbuf, rwork := make([]valueRun, n), make([]valueRun, n)
		b.Run(fmt.Sprintf("runs/n=%d/pdq", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(rwork, runs)
				slices.SortFunc(rwork, compareRuns)
			}
		})
		b.Run(fmt.Sprintf("runs/n=%d/radix", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(rwork, runs)
				radixRuns(rwork, rbuf)
			}
		})
	}
}

// BenchmarkNewEmpirical builds the ECDF of a two-month window, 17,568
// prices, i.i.d. (Table 3's histories) and at the calibrated dwell of
// 18 slots.
func BenchmarkNewEmpirical(b *testing.B) {
	for _, dwell := range []int{1, 18} {
		xs := sortPrices(61*288, dwell)
		b.Run(fmt.Sprintf("dwell%d", dwell), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewEmpirical(xs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
