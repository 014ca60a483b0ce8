package dist

import (
	"fmt"
	"math/rand"
	"slices"
)

// WindowedECDF maintains the empirical distribution of the most recent
// `capacity` observations of a stream — the rolling two-month price
// window of Fig. 1's price monitor — incrementally. Where NewEmpirical
// re-sorts the whole window on every slot tick (O(n log n) ≈ 17k·log 17k
// comparisons for the default 61-day window at 5-minute slots), Push
// performs one binary-search insert plus one binary-search evict over a
// sorted slice (two O(log n) searches and two memmoves), and the order
// statistics backing CDF/Quantile/Support are always current.
//
// Like an Empirical it holds only the sorted sample and its prefix
// sums, and it answers each query with the helper an Empirical calls.
// The prefix sums are rebuilt on the first read after a mutation, in
// NewEmpirical's left-to-right order: sums kept by incremental float
// deltas would drift from a rebuild by rounding, and every query must
// equal NewEmpirical's over the same window bit for bit.
//
// A WindowedECDF is not safe for concurrent use. Until the first Push,
// Slide or Fill it holds no samples and the Dist methods panic;
// callers gate on N() > 0 (the bidding client only consults the
// monitor after ingesting at least one quote).
type WindowedECDF struct {
	capacity int
	ring     []float64 // arrival-order storage, len == capacity
	head     int       // ring index of the oldest sample
	n        int       // live sample count, ≤ capacity

	sorted []float64  // the n live samples, sorted ascending
	runs   []valueRun // Fill's split scratch, kept at its high-water size

	// sortRuns's radix scratch, grown only by a sort of at least
	// radixMin runs, and then as append grows: the run counts of the
	// windows a recycled window holds drift up in small steps.
	runBuf []valueRun

	// Slide's scratch, kept at its high-water size: the batch's and the
	// evicted samples' sorted runs, and the values of a batch too short
	// on runs to sort by run.
	edits  []valueRun
	values []float64

	// The prefix sums, in a buffer allocated once at the window's
	// capacity, so the steady-state tick allocates nothing.
	dirtyPrefix bool
	prefix      []float64
	nbins       int // the PDF's histogram bins, as NewEmpirical takes them
}

// NewWindowedECDF returns an empty monitor over a window of the given
// capacity. nbins configures the PDF histogram exactly as in
// NewEmpirical (≤ 0 selects the square-root rule).
func NewWindowedECDF(capacity, nbins int) (*WindowedECDF, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: windowed ECDF capacity %d < 1", ErrBadParam, capacity)
	}
	return &WindowedECDF{
		capacity:    capacity,
		ring:        make([]float64, capacity),
		sorted:      make([]float64, 0, capacity),
		nbins:       nbins,
		dirtyPrefix: true,
	}, nil
}

// N reports the number of live samples (≤ Cap).
func (w *WindowedECDF) N() int { return w.n }

// Cap reports the window capacity.
func (w *WindowedECDF) Cap() int { return w.capacity }

// Push ingests one observation, evicting the oldest when the window is
// full. Cost: two binary searches plus two memmoves over the sorted
// slice — O(n) bytes moved but no comparisons beyond the searches,
// which in practice is ~100× cheaper than the full re-sort it replaces.
func (w *WindowedECDF) Push(x float64) error {
	if err := CheckSample(x); err != nil {
		return err
	}
	if w.n == w.capacity {
		old := w.ring[w.head]
		w.ring[w.head] = x
		w.head++
		if w.head == w.capacity {
			w.head = 0
		}
		// Evict exactly one copy of the oldest value. searchGE returns
		// the first index i with sorted[i] >= old; the value is
		// guaranteed present, so sorted[i] == old.
		i := searchGE(w.sorted, old)
		copy(w.sorted[i:], w.sorted[i+1:])
		w.sorted = w.sorted[:w.n-1]
		w.n--
	} else {
		tail := w.head + w.n
		if tail >= w.capacity {
			tail -= w.capacity
		}
		w.ring[tail] = x
	}
	// Sorted insert of the newcomer.
	i := searchGE(w.sorted, x)
	w.sorted = w.sorted[:w.n+1]
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = x
	w.n++
	w.dirtyPrefix = true
	return nil
}

// Slide ingests a batch of observations, oldest first, and leaves the
// window exactly as Pushing them one by one would: the same samples
// oldest to newest, the same sorted slice bit for bit, and the prefix
// sums dirty. It is the catch-up path for a reader that queries
// the window once per batch, as the lanes quote grid does once per
// quote epoch, and as serve's quote server does once per backlog of
// prices. k Pushes move 2k half-windows through memmove; Slide sorts
// the batch and the values it evicts and edits the sorted slice in
// place, O(n + k log k): one forward pass closes the gaps the evicted
// samples leave, one backward pass opens room for the batch, and no
// second window is allocated.
//
// The whole batch is validated first, each value once, so a NaN or
// Inf leaves the window unchanged. An empty batch changes nothing, a
// single value is a Push, and a batch of at least Cap values is a Fill
// of its trailing Cap values. A zero in the batch or among the samples
// it evicts sends the batch through Push one value at a time: −0 and
// +0 compare equal but differ in bits, and the places Push gives them
// are the contract.
func (w *WindowedECDF) Slide(xs []float64) error {
	k := len(xs)
	switch {
	case k == 0:
		return nil
	case k == 1:
		return w.Push(xs[0])
	}
	var in []valueRun
	var byRun, zero bool
	var err error
	if k < w.capacity {
		if cap(w.edits) < 2*k {
			w.edits = make([]valueRun, 2*k)
		}
		in, byRun, zero, err = splitRuns(w.edits[:0:k], xs)
	} else if zero, err = checkSamples(xs[:k-w.capacity]); err == nil {
		// The window keeps only the trailing Cap values, which Fill's
		// split validates; the check covers the lead it drops.
		var keptZero bool
		in, byRun, keptZero, err = splitRuns(w.runs[:0], xs[k-w.capacity:])
		w.runs, zero = in[:0], zero || keptZero
	}
	if err != nil {
		return err
	}
	// The batch evicts the e oldest live samples, all of them when it
	// fills the window by itself.
	e := min(max(w.n+k-w.capacity, 0), w.n)
	old, wrapped := w.oldest(e)
	if zero || slices.Contains(old, 0) || slices.Contains(wrapped, 0) {
		for _, x := range xs {
			_ = w.Push(x) // validated above
		}
		return nil
	}
	if k >= w.capacity {
		w.fill(xs[k-w.capacity:], in, byRun)
		return nil
	}

	// The evicted samples arrived as an earlier batch of the same
	// stream, so the batch's runs decide how both are sorted.
	gone := w.edits[k : k : 2*k]
	if byRun {
		sortRuns(in, &w.runBuf)
		gone = appendRuns(appendRuns(gone, old), wrapped)
		sortRuns(gone, &w.runBuf)
	} else {
		in = w.sortByValue(in[:0], xs)
		gone = w.sortByValue(gone, old, wrapped)
	}

	// The ring, as Push writes it: the batch lands after the newest
	// sample, overwriting the e oldest.
	tail := w.head + w.n
	if tail >= w.capacity {
		tail -= w.capacity
	}
	copy(w.ring, xs[copy(w.ring[tail:], xs):])
	w.head += e
	if w.head >= w.capacity {
		w.head -= w.capacity
	}
	w.n += k - e

	w.sorted = insertRuns(removeRuns(w.sorted, gone), in)
	w.dirtyPrefix = true
	return nil
}

// splitRuns validates a stream of samples, reports whether it holds a
// zero, and appends to rs its runs of equal consecutive values, all in
// one pass. Only a run's head goes through CheckSample and the zero
// test, since the rest of the run equals it. byRun reports whether the
// stream can be sorted by its runs: it holds no zero, and its runs are
// long enough, a mean of at least minRunLength values. Once the runs
// so far exceed that mean's count by more than splitSlack, as an
// i.i.d. stream's do after 2·splitSlack values, splitRuns takes the
// stream for one too short on runs to sort by: it stops appending,
// validates the rest one value at a time, and reports byRun false;
// what it appended is then garbage. An rs with no room, a fresh
// buffer, is allocated once at the count of runs the split appends.
func splitRuns(rs []valueRun, xs []float64) (_ []valueRun, byRun, zero bool, err error) {
	if cap(rs) == 0 {
		rs = make([]valueRun, 0, splitLen(xs))
	}
	runs := 0
	for i := 0; i < len(xs); {
		x := xs[i]
		if err := CheckSample(x); err != nil {
			return rs, false, false, err
		}
		zero = zero || x == 0
		j := i + 1
		for j < len(xs) && xs[j] == x {
			j++
		}
		rs = append(rs, valueRun{v: x, n: j - i})
		runs++
		i = j
		if minRunLength*runs > i+minRunLength*splitSlack {
			tailZero, err := checkSamples(xs[i:])
			return rs, false, zero || tailZero, err
		}
	}
	return rs, !zero && minRunLength*runs <= len(xs), zero, nil
}

// splitLen is how many runs splitRuns appends for xs: every run, or
// those up to where it stops splitting. It walks the runs as splitRuns
// does, with no check; a miscount would only cost an append's growth.
func splitLen(xs []float64) int {
	runs := 0
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		runs++
		i = j
		if minRunLength*runs > i+minRunLength*splitSlack {
			break
		}
	}
	return runs
}

// splitSlack is how many runs splitRuns lets a stream run ahead of a
// mean run of minRunLength before it stops splitting. A batch of at
// most 2·splitSlack values is always split to its end, so its sort is
// chosen by the count of all its runs.
const splitSlack = 128

// checkSamples validates samples and reports whether they hold a zero.
func checkSamples(xs []float64) (zero bool, err error) {
	for _, x := range xs {
		if err := CheckSample(x); err != nil {
			return false, err
		}
		zero = zero || x == 0
	}
	return zero, nil
}

// oldest returns the e oldest live samples in arrival order, as the
// ring segment from the head and the segment that wraps to the start.
func (w *WindowedECDF) oldest(e int) (old, wrapped []float64) {
	if end := w.head + e; end > w.capacity {
		return w.ring[w.head:], w.ring[:end-w.capacity]
	}
	return w.ring[w.head : w.head+e], nil
}

// sortSplit writes the validated sample xs to dst, of its length,
// sorted ascending with −0 before +0, as NewEmpirical and Fill build
// their samples: by the runs splitRuns split it into when byRun, as a
// dwell-model trace's ~18-slot price levels allow, and otherwise value
// by value through buf, sortFloats's scratch. Equal non-zero floats
// share their bits, so expanded runs are the slice sort.Float64s would
// produce. It returns the runs it sorted by, none after a value sort.
func sortSplit(dst, xs, buf []float64, runs []valueRun, byRun bool, runBuf *[]valueRun) []valueRun {
	if !byRun {
		copy(dst, xs)
		sortFloats(dst, buf)
		return runs[:0]
	}
	sortRuns(runs, runBuf)
	k := 0
	for _, r := range runs {
		for end := k + r.n; k < end; k++ {
			dst[k] = r.v
		}
	}
	return runs
}

// sortByValue sorts the values of the segments and appends them to rs
// as runs of equal values; rs must have room for every value. It is
// how Slide sorts a batch too short on runs to sort by run.
func (w *WindowedECDF) sortByValue(rs []valueRun, segs ...[]float64) []valueRun {
	vs := w.values[:0]
	for _, seg := range segs {
		vs = append(vs, seg...)
	}
	w.values = vs
	sortFloats(vs, w.prefixBuf(len(vs)))
	return appendRuns(rs, vs)
}

// prefixBuf returns the prefix-sum buffer at length n ≤ Cap+1, with
// room for a full window. Every mutation leaves the sums to be
// rebuilt, so until then it is sortFloats's scratch.
func (w *WindowedECDF) prefixBuf(n int) []float64 {
	if cap(w.prefix) < w.capacity+1 {
		w.prefix = make([]float64, w.capacity+1)
	}
	return w.prefix[:n]
}

// appendRuns appends to rs the runs of equal consecutive values of xs,
// samples already validated: a sorted slice, or the samples a Slide
// evicts.
func appendRuns(rs []valueRun, xs []float64) []valueRun {
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		rs = append(rs, valueRun{v: xs[i], n: j - i})
		i = j
	}
	return rs
}

// removeRuns drops the runs of gone from the sorted slice s in place.
// gone is sorted by value and holds no zero, and its values are a
// sub-multiset of s. It walks gone from its smallest run up, with one
// galloping search per run, each time moving the samples since the last
// run down over the gaps left so far, so every sample moves at most
// once. Equal non-zero floats share their bits, so which copies of a
// value are dropped cannot show.
func removeRuns(s []float64, gone []valueRun) []float64 {
	w, i := 0, 0 // s[:w] is kept, s[i:] is still to walk
	for _, r := range gone {
		j := gallopGE(s, i, r.v)
		if w < i {
			copy(s[w:], s[i:j])
		}
		w, i = w+j-i, j+r.n
	}
	if w < i {
		copy(s[w:], s[i:])
	}
	return s[:w+len(s)-i]
}

// insertRuns grows the sorted slice s in place by the runs of in,
// which is sorted by value and holds no zero; s must have the capacity
// for them. It walks in from its largest run down, each time moving the
// samples at or above the run up past the values still to come and
// writing the run below them, so every sample moves at most once.
// Where among its equals a new value lands cannot show.
func insertRuns(s []float64, in []valueRun) []float64 {
	i, k := len(s), 0
	for _, r := range in {
		k += r.n
	}
	s = s[:i+k]
	for j := len(in) - 1; j >= 0; j-- {
		lo := gallopBackGE(s, i, in[j].v)
		copy(s[lo+k:], s[lo:i])
		k -= in[j].n
		for t := lo + k; t < lo+k+in[j].n; t++ {
			s[t] = in[j].v
		}
		i = lo
	}
	return s
}

// gallopGE is i + searchGE(xs[i:], x), found by doubling a bracket from
// i before the binary search, so an answer d places on costs
// O(log d) probes rather than O(log(len(xs) − i)).
func gallopGE(xs []float64, i int, x float64) int {
	bound := 1
	for i+bound <= len(xs) && xs[i+bound-1] < x {
		bound <<= 1
	}
	lo := i + bound>>1
	return lo + searchGE(xs[lo:min(i+bound, len(xs))], x)
}

// gallopGT is i + searchGT(xs[i:], x), found by doubling a bracket
// from i as gallopGE does: the count of xs ≤ x, for an x known to be
// at or above xs[i−1].
func gallopGT(xs []float64, i int, x float64) int {
	bound := 1
	for i+bound <= len(xs) && xs[i+bound-1] <= x {
		bound <<= 1
	}
	lo := i + bound>>1
	return lo + searchGT(xs[lo:min(i+bound, len(xs))], x)
}

// gallopBackGE is searchGE(xs[:i], x), found by doubling a bracket down
// from i, so an answer d places below i costs O(log d) probes.
func gallopBackGE(xs []float64, i int, x float64) int {
	bound := 1
	for bound <= i && xs[i-bound] >= x {
		bound <<= 1
	}
	lo := max(i-bound, 0)
	return lo + searchGE(xs[lo:i-bound>>1], x)
}

// Fill replaces the window contents with the trailing min(len(xs), Cap)
// values of xs in one bulk load. It is the resync path: initial
// warm-up, and recovery after a gap too large for per-slot pushes to
// be worth their memmoves.
//
// One pass validates the window and splits it into runs of equal
// consecutive values (splitRuns), and sortSplit sorts it, as
// NewEmpirical does: by run when runs are long, and value by value
// for an i.i.d. stream, which stops splitting within its first few
// hundred values, and for a window holding a zero, which puts −0
// before +0.
func (w *WindowedECDF) Fill(xs []float64) error {
	if len(xs) == 0 {
		return errNoSample
	}
	if len(xs) > w.capacity {
		xs = xs[len(xs)-w.capacity:]
	}
	runs, byRun, _, err := splitRuns(w.runs[:0], xs)
	if err == nil {
		w.fill(xs, runs, byRun)
	}
	return err
}

// fill loads the validated window xs, split into runs, as Fill and
// Slide do.
func (w *WindowedECDF) fill(xs []float64, runs []valueRun, byRun bool) {
	w.n = copy(w.ring, xs)
	w.head = 0
	w.sorted = w.sorted[:w.n]
	w.runs = sortSplit(w.sorted, xs, w.prefixBuf(w.n), runs, byRun, &w.runBuf)
	w.dirtyPrefix = true
}

// minRunLength is the mean run length from which Fill sorts runs
// rather than slots. Over a 17,568-slot window, each branch timed with
// its own validation, the run branch is 1.2–1.3× slower than the plain
// sort at a mean run of 1 (an i.i.d. trace), ties it at 1.5, and wins
// 1.3–1.5× at 2, 1.9–2.1× at 3 and 8–11× at 18. No generated trace has
// a mean run between 1 and 2, so the tie's move below 2 leaves this.
const minRunLength = 2

// valueRun is one run of equal consecutive values in a stream.
type valueRun struct {
	v float64
	n int
}

func (w *WindowedECDF) mustSample() {
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
}

// refreshPrefix rebuilds the prefix-sum array after a mutation. The
// summation runs left to right over the sorted sample — the same order
// newEmpiricalOwned uses — so PartialMean matches a fresh NewEmpirical
// of the identical window bit for bit.
func (w *WindowedECDF) refreshPrefix() {
	if !w.dirtyPrefix {
		return
	}
	w.mustSample()
	prefixSums(w.prefixBuf(w.n+1), w.sorted)
	w.dirtyPrefix = false
}

// Snapshot freezes the current window as an immutable *Empirical —
// what Client.market hands to the bid optimizer and keeps as its
// stale-ECDF fallback — with the window's histogram bin count. It
// skips the sort (the window is already ordered) but still copies, so
// later Pushes cannot perturb a retained snapshot.
func (w *WindowedECDF) Snapshot() (*Empirical, error) {
	if w.n == 0 {
		return nil, errNoSample
	}
	s := make([]float64, w.n)
	copy(s, w.sorted)
	return newEmpiricalOwned(s, make([]float64, w.n+1), w.nbins), nil
}

// Values returns the sorted live window (shared; callers must not
// modify or retain across a Push).
func (w *WindowedECDF) Values() []float64 { return w.sorted[:w.n] }

// PDF implements Dist using the histogram density.
func (w *WindowedECDF) PDF(x float64) float64 {
	w.mustSample()
	return histDensity(w.sorted, w.nbins, x)
}

// CDF implements Dist with the right-continuous ECDF
// F(x) = #{x_i ≤ x}/n.
func (w *WindowedECDF) CDF(x float64) float64 {
	w.mustSample()
	return float64(searchGT(w.sorted, x)) / float64(w.n)
}

// Quantile implements Dist with type-7 interpolation, matching
// Empirical.Quantile.
func (w *WindowedECDF) Quantile(q float64) float64 {
	w.mustSample()
	return quantile(w.sorted, q)
}

// Sample implements Dist by bootstrap resampling.
func (w *WindowedECDF) Sample(r *rand.Rand) float64 {
	w.mustSample()
	return w.sorted[r.Intn(w.n)]
}

// Mean implements Dist with MeanVar's sample mean.
func (w *WindowedECDF) Mean() float64 {
	w.mustSample()
	m, _ := MeanVar(w.sorted)
	return m
}

// Var implements Dist with MeanVar's unbiased sample variance.
func (w *WindowedECDF) Var() float64 {
	w.mustSample()
	_, v := MeanVar(w.sorted)
	return v
}

// Support implements Dist.
func (w *WindowedECDF) Support() Interval {
	w.mustSample()
	return Interval{Lo: w.sorted[0], Hi: w.sorted[w.n-1]}
}

// PartialMean returns (1/n)·Σ_{x_i ≤ p} x_i — see Empirical.PartialMean.
func (w *WindowedECDF) PartialMean(p float64) float64 {
	w.refreshPrefix()
	_, pm := ecdfAt(w.sorted, w.prefix, p)
	return pm
}

// cdfPartialMean returns CDF(p) and PartialMean(p) from one search,
// refreshing the prefix sums first as PartialMean does.
func (w *WindowedECDF) cdfPartialMean(p float64) (f, pm float64) {
	w.refreshPrefix()
	return ecdfAt(w.sorted, w.prefix, p)
}
