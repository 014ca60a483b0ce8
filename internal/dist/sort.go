package dist

import (
	"cmp"
	"math"
	"slices"
)

// Every full sort of a sample in this package goes through sortFloats,
// and every sort of a sample's runs through sortRuns: NewEmpirical,
// Fill's plain and run branches, and Slide's value and run branches.
// From radixMin elements up both are one LSD radix sort on floatKey,
// eight 8-bit digits, skipping every digit that all keys share. A
// two-month price window holds 17,568 distinct prices whose top digit
// (the sign and the exponent's high bits) never varies, so it takes
// seven counting-scatter passes where pdqsort makes ~250k comparisons.
// Below radixMin they are the comparison sorts (pdqsort), whose cost
// on a few hundred values is below that of the eight histograms a
// radix pass needs.
//
// Both sorts put −0 before +0. The two compare equal, so a comparison
// sort alone leaves their order unspecified; floatKey orders them, and
// the comparison branch restores that order. Every other value lands
// where sort.Float64s would put it, bit for bit, since equal non-zero
// floats share their bits.

// radixMin is the element count from which sortFloats and sortRuns
// radix sort, read off BenchmarkSortCrossover (2-vCPU Xeon, go1.24.0,
// medians of five). On i.i.d. prices the radix sort is slower than
// pdqsort up to 256 values (7.5 against 6.6 µs), faster at 512 (9.6
// against 14.4 µs) and 3.8× faster at 4,096. On runs it is faster from
// 128 up, 2.7× at 512. On prices held in runs of 18 it loses up to
// 4,096 values, since pdqsort profits from the repeats; no caller sorts
// such a sample below a two-month window's 17,568 values, where the
// radix sort still wins (a window sorts it as runs). The lanes quote
// epoch's 288-slot Slide (~16 runs) and serve's backlogs of a few
// prices stay on the comparison sorts.
const radixMin = 512

// floatKey maps x to an unsigned key with the order of the floats,
// −0 just below +0: the IEEE bits with the sign bit flipped for a
// positive value and every bit flipped for a negative one.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// digitCounts holds one histogram per 8-bit key digit, lowest first.
type digitCounts [8][256]int

// count adds key k's eight digits to the histograms.
func (c *digitCounts) count(k uint64) {
	c[0][k&0xff]++
	c[1][k>>8&0xff]++
	c[2][k>>16&0xff]++
	c[3][k>>24&0xff]++
	c[4][k>>32&0xff]++
	c[5][k>>40&0xff]++
	c[6][k>>48&0xff]++
	c[7][k>>56]++
}

// offsets turns digit d's histogram into each bucket's first index. It
// reports false, and leaves the histogram, when every one of the n
// keys, among them key0, has the same digit d: that pass would move
// nothing.
func (c *digitCounts) offsets(d int, key0 uint64, n int) bool {
	h := &c[d]
	if h[key0>>(8*d)&0xff] == n {
		return false
	}
	sum := 0
	for i, m := range h {
		h[i] = sum
		sum += m
	}
	return true
}

// sortFloats sorts xs ascending, −0 before +0. From radixMin values up
// it radix sorts through buf, which must hold len(xs) values and is
// left holding garbage; below, it ignores buf, which may be nil.
func sortFloats(xs, buf []float64) {
	if len(xs) < radixMin {
		slices.Sort(xs)
		zerosFirst(xs)
		return
	}
	radixFloats(xs, buf)
}

// radixFloats is sortFloats's radix branch, for any non-empty xs.
func radixFloats(xs, buf []float64) {
	var c digitCounts
	for _, x := range xs {
		c.count(floatKey(x))
	}
	key0 := floatKey(xs[0])
	src, dst := xs, buf[:len(xs)]
	for d := 0; d < 8; d++ {
		if !c.offsets(d, key0, len(xs)) {
			continue
		}
		h, shift := &c[d], 8*d
		for _, x := range src {
			j := floatKey(x) >> shift & 0xff
			dst[h[j]] = x
			h[j]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// zerosFirst moves every −0 of the sorted xs ahead of every +0.
func zerosFirst(xs []float64) {
	lo := searchGE(xs, 0)
	hi, neg := lo, 0
	for ; hi < len(xs) && xs[hi] == 0; hi++ {
		if math.Signbit(xs[hi]) {
			neg++
		}
	}
	for i := lo; i < hi; i++ {
		xs[i] = 0
		if i < lo+neg {
			xs[i] = math.Copysign(0, -1)
		}
	}
}

// sortRuns sorts runs by value, −0 before +0, as sortFloats sorts
// values; the order of runs of one value is unspecified. From radixMin
// runs up it radix sorts through buf, which must hold len(rs) runs;
// below, it ignores buf, which may be nil.
func sortRuns(rs, buf []valueRun) {
	if len(rs) < radixMin {
		slices.SortFunc(rs, compareRuns)
		return
	}
	radixRuns(rs, buf)
}

// compareRuns orders runs as sortRuns does, by their values' keys.
func compareRuns(a, b valueRun) int { return cmp.Compare(floatKey(a.v), floatKey(b.v)) }

// radixRuns is sortRuns's radix branch, for any non-empty rs.
func radixRuns(rs, buf []valueRun) {
	var c digitCounts
	for _, r := range rs {
		c.count(floatKey(r.v))
	}
	key0 := floatKey(rs[0].v)
	src, dst := rs, buf[:len(rs)]
	for d := 0; d < 8; d++ {
		if !c.offsets(d, key0, len(rs)) {
			continue
		}
		h, shift := &c[d], 8*d
		for _, r := range src {
			j := floatKey(r.v) >> shift & 0xff
			dst[h[j]] = r
			h[j]++
		}
		src, dst = dst, src
	}
	if &src[0] != &rs[0] {
		copy(rs, src)
	}
}
