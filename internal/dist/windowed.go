package dist

import (
	"fmt"
	"math"
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
// The derived aggregates — the prefix-sum array used by PartialMean,
// the cached mean/variance, and the PDF histogram — are rebuilt lazily
// on first use after a mutation, with the exact same left-to-right
// summation order as NewEmpirical. That choice is deliberate: updating
// a prefix sum incrementally in floating point would accumulate
// rounding drift relative to a fresh rebuild, and the acceptance
// contract for this type is *element-identical* results (not merely
// approximately equal) against NewEmpirical over the same window, so
// seeded runs are bit-for-bit unchanged by the fast path.
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
	runs   []valueRun // Fill's scratch, kept at its high-water size

	// sortRuns's radix scratch, grown only by a sort of at least
	// radixMin runs, and then as append grows: the run counts of the
	// windows a recycled window holds drift up in small steps.
	runBuf []valueRun

	// Slide's scratch, kept at its high-water size: the batch's and the
	// evicted samples' sorted runs, and the values of a batch too short
	// on runs to sort by run.
	edits  []valueRun
	values []float64

	// Lazily rebuilt aggregates. Each family carries its own dirty
	// flag (every mutation sets all three) so a quote path that only
	// needs partial means — the Prop. 4/5 grid touches CDF, Quantile,
	// and PartialMean but never PDF or the moments — pays for exactly
	// one O(n) prefix pass per slot, not the histogram scan and the
	// two-pass variance it used to drag along. All rebuild buffers
	// (prefix, bins, counts, dens) are pooled: allocated once at the
	// window's high-water mark and reused, so the steady-state tick
	// allocates nothing.
	dirtyPrefix  bool
	dirtyMoments bool
	dirtyHist    bool
	prefix       []float64
	mean         float64
	vari         float64
	bins         []float64
	counts       []int
	dens         []float64
	nbins        int // histogram bin request for lazy rebuilds; ≤0 = sqrt rule
}

// NewWindowedECDF returns an empty monitor over a window of the given
// capacity. nbins configures the PDF histogram exactly as in
// NewEmpirical (≤ 0 selects the square-root rule at rebuild time).
func NewWindowedECDF(capacity, nbins int) (*WindowedECDF, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: windowed ECDF capacity %d < 1", ErrBadParam, capacity)
	}
	return &WindowedECDF{
		capacity:     capacity,
		ring:         make([]float64, capacity),
		sorted:       make([]float64, 0, capacity),
		nbins:        nbins,
		dirtyPrefix:  true,
		dirtyMoments: true,
		dirtyHist:    true,
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
	w.dirtyPrefix, w.dirtyMoments, w.dirtyHist = true, true, true
	return nil
}

// Slide ingests a batch of observations, oldest first, and leaves the
// window exactly as Pushing them one by one would: the same samples
// oldest to newest, the same sorted slice bit for bit, and the lazy
// aggregates dirty. It is the catch-up path for a reader that queries
// the window once per batch, as the lanes quote grid does once per
// quote epoch, and as serve's quote server does once per backlog of
// prices. k Pushes move 2k half-windows through memmove; Slide sorts
// the batch and the values it evicts and edits the sorted slice in
// place, O(n + k log k): one forward pass closes the gaps the evicted
// samples leave, one backward pass opens room for the batch, and no
// second window is allocated.
//
// The whole batch is validated first, so a NaN or Inf leaves the
// window unchanged. An empty batch changes nothing, a single value is
// a Push, and a batch of at least Cap values is a Fill. A zero in the
// batch or among the samples it evicts sends the batch through Push
// one value at a time: −0 and +0 compare equal but differ in bits, and
// the places Push gives them are the contract.
func (w *WindowedECDF) Slide(xs []float64) error {
	runs, zero, err := scan(xs)
	if err != nil {
		return err
	}
	k := len(xs)
	switch {
	case k == 0:
		return nil
	case k == 1:
		return w.Push(xs[0])
	}
	// The batch evicts the e oldest live samples, all of them when it
	// fills the window by itself.
	e := min(max(w.n+k-w.capacity, 0), w.n)
	old, wrapped := w.oldest(e)
	zero = zero || slices.Contains(old, 0) || slices.Contains(wrapped, 0)
	if zero {
		for _, x := range xs {
			_ = w.Push(x) // validated above
		}
		return nil
	}
	if k >= w.capacity {
		return w.Fill(xs)
	}

	// The evicted samples arrived as an earlier batch of the same
	// stream, so the batch's runs decide how both are sorted.
	byRun := runs*minRunLength <= k
	if cap(w.edits) < 2*k {
		w.edits = make([]valueRun, 2*k)
	}
	in := w.sortedRuns(w.edits[:0:k], byRun, xs)
	gone := w.sortedRuns(w.edits[k:k:2*k], byRun, old, wrapped)

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
	w.dirtyPrefix, w.dirtyMoments, w.dirtyHist = true, true, true
	return nil
}

// scan validates a batch of samples and counts its runs of equal
// consecutive values, and reports whether it holds a zero.
func scan(xs []float64) (runs int, zero bool, err error) {
	prev := math.NaN()
	for _, x := range xs {
		if err := CheckSample(x); err != nil {
			return 0, false, err
		}
		if x != prev {
			runs++
			prev = x
		}
		if x == 0 {
			zero = true
		}
	}
	return runs, zero, nil
}

// oldest returns the e oldest live samples in arrival order, as the
// ring segment from the head and the segment that wraps to the start.
func (w *WindowedECDF) oldest(e int) (old, wrapped []float64) {
	if end := w.head + e; end > w.capacity {
		return w.ring[w.head:], w.ring[:end-w.capacity]
	}
	return w.ring[w.head : w.head+e], nil
}

// sortedRuns appends to rs the values of the segments as runs of equal
// values sorted by value; one value may span adjacent runs. rs must
// have room for every value. Dwell-model prices come in runs of equal
// consecutive values, and with byRun it sorts those runs, as Fill does;
// otherwise it sorts the values and counts the runs of the result.
func (w *WindowedECDF) sortedRuns(rs []valueRun, byRun bool, segs ...[]float64) []valueRun {
	if byRun {
		for _, seg := range segs {
			rs = appendRuns(rs, seg)
		}
		var buf []valueRun
		if len(rs) >= radixMin {
			w.runBuf = slices.Grow(w.runBuf[:0], len(rs))
			buf = w.runBuf[:len(rs)]
		}
		sortRuns(rs, buf)
		return rs
	}
	vs := w.values[:0]
	for _, seg := range segs {
		vs = append(vs, seg...)
	}
	w.values = vs
	sortFloats(vs, w.floatScratch(len(vs)))
	return appendRuns(rs, vs)
}

// floatScratch returns sortFloats's scratch for n ≤ Cap values: nil
// below radixMin, where it needs none, and otherwise the prefix-sum
// buffer, which every mutation leaves to be rebuilt, allocated as
// refreshPrefix allocates it.
func (w *WindowedECDF) floatScratch(n int) []float64 {
	if n < radixMin {
		return nil
	}
	w.growPrefix()
	return w.prefix[:n]
}

// growPrefix gives the prefix-sum buffer room for a full window.
func (w *WindowedECDF) growPrefix() {
	if cap(w.prefix) < w.capacity+1 {
		w.prefix = make([]float64, w.capacity+1)
	}
}

// appendRuns appends to rs the runs of equal consecutive values of xs.
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
// The validation pass also counts the stream's runs of equal
// consecutive values. A dwell-model price trace holds one run per
// price level, ~18 slots each at the default dwell, so when runs are
// sparse Fill sorts the runs and expands them instead of sorting every
// slot. Equal non-zero floats share their bits, so the expansion is
// the slice sort.Float64s would produce. A window holding a zero falls
// back to the plain sort, which puts −0 before +0 as NewEmpirical
// does.
func (w *WindowedECDF) Fill(xs []float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("%w: empirical distribution needs at least one sample", ErrBadParam)
	}
	if len(xs) > w.capacity {
		xs = xs[len(xs)-w.capacity:]
	}
	runs, zero, err := scan(xs)
	if err != nil {
		return err
	}
	w.n = copy(w.ring, xs)
	w.head = 0
	w.sorted = w.sorted[:w.n]
	if zero || runs*minRunLength > w.n {
		copy(w.sorted, xs)
		sortFloats(w.sorted, w.floatScratch(w.n))
	} else {
		// Runs of one value land next to each other in any order,
		// since their values are bit-identical.
		if cap(w.runs) < runs {
			w.runs = make([]valueRun, 0, runs)
		}
		w.runs = w.sortedRuns(w.runs[:0], true, xs)
		k := 0
		for _, r := range w.runs {
			for end := k + r.n; k < end; k++ {
				w.sorted[k] = r.v
			}
		}
	}
	w.dirtyPrefix, w.dirtyMoments, w.dirtyHist = true, true, true
	return nil
}

// minRunLength is the mean run length from which Fill sorts runs
// rather than slots. Over a 17,568-slot window the run sort ties the
// plain sort at a mean run of 2 and wins 1.7× at 3 and 3.6× at 18;
// below 2, as on an i.i.d. trace, the run pass is pure overhead.
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
	w.growPrefix()
	w.prefix = w.prefix[:w.n+1]
	w.prefix[0] = 0
	for i, x := range w.sorted {
		w.prefix[i+1] = w.prefix[i] + x
	}
	w.dirtyPrefix = false
}

// refreshMoments recomputes the cached mean/variance with the exact
// MeanVar pass NewEmpirical uses.
func (w *WindowedECDF) refreshMoments() {
	if !w.dirtyMoments {
		return
	}
	w.mustSample()
	w.mean, w.vari = MeanVar(w.sorted)
	w.dirtyMoments = false
}

// refreshHist rebuilds the PDF histogram into the pooled buffers with
// histogramFor's exact arithmetic.
func (w *WindowedECDF) refreshHist() {
	if !w.dirtyHist {
		return
	}
	w.mustSample()
	w.bins, w.counts, w.dens = histogramInto(w.sorted, w.nbins, w.bins, w.counts, w.dens)
	w.dirtyHist = false
}

// Snapshot freezes the current window as an immutable *Empirical —
// what Client.market hands to the bid optimizer and keeps as its
// stale-ECDF fallback. It skips the sort (the window is already
// ordered) but still copies, so later Pushes cannot perturb a retained
// snapshot. nbins semantics match NewEmpirical.
func (w *WindowedECDF) Snapshot(nbins int) (*Empirical, error) {
	if w.n == 0 {
		return nil, fmt.Errorf("%w: empirical distribution needs at least one sample", ErrBadParam)
	}
	s := make([]float64, w.n)
	copy(s, w.sorted)
	return newEmpiricalOwned(s, make([]float64, w.n+1), nbins), nil
}

// Values returns the sorted live window (shared; callers must not
// modify or retain across a Push).
func (w *WindowedECDF) Values() []float64 { return w.sorted[:w.n] }

// PDF implements Dist using the histogram density.
func (w *WindowedECDF) PDF(x float64) float64 {
	w.refreshHist()
	return histPDF(w.bins, w.dens, x)
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
	checkProb(q)
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
	if w.n == 1 {
		return w.sorted[0]
	}
	h := float64(w.n-1) * q
	i := int(h)
	if i >= w.n-1 {
		return w.sorted[w.n-1]
	}
	frac := h - float64(i)
	return w.sorted[i] + frac*(w.sorted[i+1]-w.sorted[i])
}

// Sample implements Dist by bootstrap resampling.
func (w *WindowedECDF) Sample(r *rand.Rand) float64 {
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
	return w.sorted[r.Intn(w.n)]
}

// Mean implements Dist.
func (w *WindowedECDF) Mean() float64 {
	w.refreshMoments()
	return w.mean
}

// Var implements Dist.
func (w *WindowedECDF) Var() float64 {
	w.refreshMoments()
	return w.vari
}

// Support implements Dist.
func (w *WindowedECDF) Support() Interval {
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
	return Interval{Lo: w.sorted[0], Hi: w.sorted[w.n-1]}
}

// PartialMean returns (1/n)·Σ_{x_i ≤ p} x_i — see Empirical.PartialMean.
func (w *WindowedECDF) PartialMean(p float64) float64 {
	w.refreshPrefix()
	return w.prefix[searchGT(w.sorted, p)] / float64(w.n)
}

// cdfPartialMean returns CDF(p) and PartialMean(p) from one search,
// refreshing the prefix sums first as PartialMean does.
func (w *WindowedECDF) cdfPartialMean(p float64) (f, pm float64) {
	w.refreshPrefix()
	k := searchGT(w.sorted, p)
	n := float64(w.n)
	return float64(k) / n, w.prefix[k] / n
}
