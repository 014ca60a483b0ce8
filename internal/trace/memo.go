package trace

import (
	"container/list"
	"sync"

	"repro/internal/dist"
)

// Trace generation is deterministic: the price series is a pure
// function of (calibration, seed, days, dynamics model, diurnal
// modulation, dwell grain). Every figure/table experiment and every
// sched.Runs or sched.Grid repetition that shares a region
// configuration therefore regenerates byte-identical prices — the
// single most expensive step of a run (arrival draws + equilibrium
// inversion per slot). The memo below caches the generated series
// under exactly that key.
//
// Determinism is preserved, not merely approximated: the cache holds
// the validated header of each generation, switch count and dwell
// included, and Generate records a hit with the same RecordGeneration
// call as a miss — the trace.slots_generated / trace.dwell_switches
// counters, the trace.price_usd histogram batch, and the PriceSet
// flight-recorder series, in the same order — so metrics snapshots and
// trace exports are byte-identical whether the series came from the
// generator or the cache. The one path that cannot be replayed is
// FullDynamics with a Metrics registry attached (the queue simulator
// records per-slot market.* series while running); Generate bypasses
// the memo there.
//
// Cached series are shared: Generate returns a fresh copy of the cached
// *Trace header, whose Prices slice aliases the cache entry. Every
// consumer treats generated prices as immutable (the market reads
// them; PriceHistory returns read-only views; the chaos injector clones
// before mutating), matching Region.PriceHistory's aliasing contract.

// memoKey identifies one deterministic generation. GenOptions fields
// are normalized (defaults applied) before lookup so Generate(opt) and
// Generate(normalized opt) share an entry.
type memoKey struct {
	cal     Calibration
	days    int
	seed    int64
	full    bool
	diurnal float64
	dwell   int
}

// ecdfCell lazily materializes the full-series empirical distribution
// of one cached generation exactly once, shared by all Trace headers
// aliasing that series. Its sort, a radix sort of the 17.5k samples
// of the default window (dist/sort.go), is still the most expensive
// computation derived from a series. In the §7.1 sweep only Table 3
// reads a cell, one per type, on the sched.Ordered worker that solves
// the type, and a repeat of Table 3 in the same process reuses it;
// Figures 5 and 6 fill their own window at each cell's submit slot and
// never read one. A hit returns the identical *Empirical (itself
// immutable), which is indistinguishable from a fresh build because
// NewEmpirical is a pure function of the (immutable) price slice.
// Sub-traces from Window/LastHours cover different samples and never
// carry a cell.
type ecdfCell struct {
	once sync.Once
	e    *dist.Empirical
	err  error
}

// DefaultMemoCapacity bounds the cache at 64 two-month series
// (≈ 150 KB each, under 10 MB in all). It holds the 55 distinct
// (type, seed) series of the default §7.1 sweep — Table 3's 5 and the
// 50 cells Figures 5 and 6 share at ten runs — which a capacity below
// 55 would not: the figures walk their cells in the same order, so a
// smaller LRU evicts each series just before the next figure needs it.
const DefaultMemoCapacity = 64

var memo = struct {
	sync.Mutex
	capacity int
	entries  map[memoKey]*list.Element // value: *memoPair
	order    *list.List                // front = most recently used
	hits     uint64
	misses   uint64
}{capacity: DefaultMemoCapacity}

// memoPair is one cache entry: a generation's validated header, whose
// prices every hit shares and whose ecdf cell is set (see ecdfCell).
type memoPair struct {
	key   memoKey
	entry Trace
}

// SetMemoCapacity resizes the generation cache. n ≤ 0 disables
// memoization entirely (every Generate runs the full generator — the
// reference path for cache-equivalence tests). The cache is cleared
// either way.
func SetMemoCapacity(n int) {
	memo.Lock()
	defer memo.Unlock()
	memo.capacity = n
	memo.entries = nil
	memo.order = nil
	memo.hits, memo.misses = 0, 0
}

// ResetMemo clears the generation cache, keeping its capacity.
func ResetMemo() {
	memo.Lock()
	defer memo.Unlock()
	memo.entries = nil
	memo.order = nil
	memo.hits, memo.misses = 0, 0
}

// MemoStats reports cache hits and misses since the last reset —
// observability for the memo itself, and the handle tests use to prove
// a sweep actually dedupes generation.
func MemoStats() (hits, misses uint64) {
	memo.Lock()
	defer memo.Unlock()
	return memo.hits, memo.misses
}

// memoLookup returns a copy of the header cached for key, if any.
func memoLookup(key memoKey) (*Trace, bool) {
	memo.Lock()
	defer memo.Unlock()
	if memo.capacity <= 0 || memo.entries == nil {
		if memo.capacity > 0 {
			memo.misses++
		}
		return nil, false
	}
	el, ok := memo.entries[key]
	if !ok {
		memo.misses++
		return nil, false
	}
	memo.hits++
	memo.order.MoveToFront(el)
	tr := el.Value.(*memoPair).entry
	return &tr, true
}

// memoStore records a copy of a freshly generated, validated header.
// Concurrent generators may race to fill the same key; entries are
// value-identical (the generator is deterministic), so last-write-wins
// is harmless.
func memoStore(key memoKey, tr *Trace) {
	entry := *tr
	memo.Lock()
	defer memo.Unlock()
	if memo.capacity <= 0 {
		return
	}
	if memo.entries == nil {
		memo.entries = make(map[memoKey]*list.Element)
		memo.order = list.New()
	}
	if el, ok := memo.entries[key]; ok {
		el.Value.(*memoPair).entry = entry
		memo.order.MoveToFront(el)
		return
	}
	memo.entries[key] = memo.order.PushFront(&memoPair{key: key, entry: entry})
	for memo.order.Len() > memo.capacity {
		oldest := memo.order.Back()
		memo.order.Remove(oldest)
		delete(memo.entries, oldest.Value.(*memoPair).key)
	}
}
