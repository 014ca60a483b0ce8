package dist

import (
	"math"
	"testing"
)

// refHist builds the histogram both ECDF types once stored for their
// PDF: edges lo + i·width with the last exactly hi, counts by
// ⌊(x − lo)/width⌋ clamped to the last bin, and density c/(n·width);
// nbins ≤ 0 selects ⌈√n⌉ bins, and a one-value sample is a single
// sliver-width bin around its value.
func refHist(xs []float64, nbins int) (bins, dens []float64) {
	if nbins <= 0 {
		nbins = max(int(math.Ceil(math.Sqrt(float64(len(xs))))), 1)
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if hi == lo {
		w := math.Max(math.Abs(lo)*1e-9, 1e-12)
		return []float64{lo - w/2, lo + w/2}, []float64{1 / w}
	}
	step := (hi - lo) / float64(nbins)
	bins = make([]float64, nbins+1)
	for i := range bins {
		bins[i] = lo + float64(i)*step
	}
	bins[nbins] = hi
	counts := make([]int, nbins)
	for _, x := range xs {
		i := int((x - lo) / step)
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	dens = make([]float64, nbins)
	for i, c := range counts {
		dens[i] = float64(c) / (float64(len(xs)) * step)
	}
	return bins, dens
}

// refPDF reads a stored histogram at x as the stored-histogram PDF did.
func refPDF(bins, dens []float64, x float64) float64 {
	if x < bins[0] || x > bins[len(bins)-1] {
		return 0
	}
	i := searchGE(bins, x)
	if i > 0 {
		i--
	}
	if i >= len(dens) {
		i = len(dens) - 1
	}
	return dens[i]
}

// refMeanVar is the two-pass sample mean and unbiased variance both
// ECDF types once cached.
func refMeanVar(xs []float64) (mean, variance float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) == 1 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1)
}

// assertStoredHistogram holds d's PDF, Mean and Var to the stored
// histogram and cached moments of its sorted sample, bit for bit: at
// every sample, between neighbours, on every bin edge and one ulp to
// either side, outside the support, and at ±Inf and NaN.
func assertStoredHistogram(t *testing.T, what string, d Dist, sorted []float64, nbins int) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	bins, dens := refHist(sorted, nbins)
	probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), sorted[0] - 1, sorted[len(sorted)-1] + 1}
	for i, x := range sorted {
		probes = append(probes, x)
		if i > 0 {
			probes = append(probes, sorted[i-1]+(x-sorted[i-1])/2)
		}
	}
	for _, e := range bins {
		probes = append(probes, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	for _, x := range probes {
		if got, want := d.PDF(x), refPDF(bins, dens, x); !same(got, want) {
			t.Fatalf("%s, %d bins over %v: PDF(%v) = %v, stored histogram %v", what, nbins, sorted, x, got, want)
		}
	}
	m, v := refMeanVar(sorted)
	if !same(d.Mean(), m) || !same(d.Var(), v) {
		t.Fatalf("%s over %v: moments (%v, %v), cached (%v, %v)", what, sorted, d.Mean(), d.Var(), m, v)
	}
}

// FuzzHistDensity holds the PDF, Mean and Var that both ECDF types
// compute from their sorted sample to the stored histogram and cached
// moments they replace (refHist, refMeanVar), bit for bit: an Empirical,
// and a WindowedECDF after Fill, after Pushes and after Slides of the
// same stream. Byte 0 sets nbins (0–40), byte 1 the value family, and
// each of the next 600 bytes at most a value: quarter steps from −32 to 31.75 with 0x80 for
// −0 and 0 for +0 (family 0), a price b ulps above 0.0412 (family 1),
// ±b·10⁶ plus a fraction (family 2), or b/7 − 18, inexact in binary
// (family 3).
func FuzzHistDensity(f *testing.F) {
	f.Add([]byte{0, 0, 12})                                    // one value
	f.Add([]byte{3, 0, 12, 40})                                // two values
	f.Add([]byte{1, 1, 7})                                     // one price, one bin
	f.Add([]byte{0, 0, 0x80, 0, 0x80, 4})                      // −0 and +0 with a positive
	f.Add([]byte{2, 0, 0x80, 0, 0})                            // only zeros, either sign
	f.Add([]byte{5, 1, 0, 1, 2, 3, 2, 1, 0})                   // values a few ulps apart
	f.Add([]byte{40, 1, 0, 200, 3, 9, 250})                    // more bins than values
	f.Add([]byte{7, 2, 1, 255, 128, 64, 3, 3, 9})              // wide values
	f.Add([]byte{13, 3, 0, 7, 14, 21, 28, 35, 42, 49, 56, 63}) // samples on the edges
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			t.Skip()
		}
		nbins := int(raw[0]) % 41
		xs := make([]float64, 0, len(raw)-2)
		for _, b := range raw[2:min(len(raw), 602)] { // Pushes cost O(n²)
			var v float64
			switch raw[1] % 4 {
			case 0:
				v = float64(int8(b)) / 4
				if b == 0x80 {
					v = math.Copysign(0, -1)
				}
			case 1:
				v = math.Float64frombits(math.Float64bits(0.0412) + uint64(b))
			case 2:
				v = float64(int8(b))*1e6 + float64(b)/256
			default:
				v = float64(b)/7 - 18
			}
			xs = append(xs, v)
		}
		e, err := NewEmpirical(xs, nbins)
		if err != nil {
			t.Fatal(err)
		}
		assertStoredHistogram(t, "Empirical", e, e.Values(), nbins)

		filled, _ := NewWindowedECDF(len(xs), nbins)
		pushed, _ := NewWindowedECDF(len(xs), nbins)
		slid, _ := NewWindowedECDF(len(xs), nbins)
		if err := filled.Fill(xs); err != nil {
			t.Fatal(err)
		}
		half := len(xs) / 2
		for i, x := range xs {
			if err := pushed.Push(x); err != nil {
				t.Fatal(err)
			}
			if i == half {
				assertStoredHistogram(t, "WindowedECDF after half the Pushes", pushed, pushed.Values(), nbins)
			}
		}
		// Pushing the first half again evicts as many samples.
		for _, x := range xs[:half] {
			if err := pushed.Push(x); err != nil {
				t.Fatal(err)
			}
		}
		for _, batch := range [][]float64{xs[:half], xs[half:], xs[:half]} {
			if err := slid.Slide(batch); err != nil {
				t.Fatal(err)
			}
		}
		for what, w := range map[string]*WindowedECDF{"Fill": filled, "Push": pushed, "Slide": slid} {
			assertStoredHistogram(t, "WindowedECDF after "+what, w, w.Values(), nbins)
		}
	})
}
