// Package tsdb is the reproduction's deterministic in-process
// time-series store: the layer that turns the repo's point-in-time
// telemetry (obs counters/gauges/histograms, flight-recorder events,
// the serve audit ring) into *time-shaped* data — "what was the
// fresh-tier ratio over the last 500 slots", "is the shed rate
// burning the error budget", "when did region B's breaker trip".
//
// Design rules, inherited from internal/obs and internal/obs/event:
//
//   - Samples are indexed by simulated slot, never wall clock
//     (enforced by scripts/no_wallclock.sh). One seed yields one byte
//     sequence per dump format on every run, so a tsdb dump is a
//     determinism artifact: the double-run tests diff them byte for
//     byte.
//   - Zero dependencies beyond the standard library.
//   - Memory is bounded: each series is a ring of encoded chunks
//     (delta-of-delta slots, XOR-coded values — see chunk.go) capped
//     at a fixed sample budget; the oldest chunk is evicted whole
//     when the budget overflows, exactly like the flight recorder's
//     overwrite-oldest ring.
//
// The package splits into: this file (the store), scrape.go (the
// obs.Registry snapshotter and derived-signal sources), query.go
// (range selection and window functions), slo.go (declarative SLOs
// with multi-window burn-rate alerting), and dump.go (byte-stable
// CSV/JSONL export plus the JSONL reader cmd/spotbidtop replays).
//
// A DB is safe for concurrent use — the scrape-during-emit race
// hammer in race_test.go runs appends, queries, and dumps against
// live registry traffic — but determinism of the *contents*
// additionally requires appends to each series to arrive in slot
// order, which the single-goroutine scrape loops provide.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Point is one decoded sample.
type Point struct {
	Slot  int
	Value float64
}

// Label is one name dimension.
type Label struct {
	Key, Value string
}

// Labels is a sorted label set. Build with L; the zero value is the
// empty set.
type Labels []Label

// L builds a Labels from key/value pairs, sorted by key. It panics on
// an odd argument count — a programming error.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("tsdb: L called with %d arguments, want pairs", len(kv)))
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// With returns a copy of the label set extended by the given pairs,
// re-sorted. The receiver is not modified.
func (ls Labels) With(kv ...string) Labels {
	out := append(Labels(nil), ls...)
	out = append(out, L(kv...)...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// String renders the canonical form: {k1="v1",k2="v2"}, "" for the
// empty set. It is the series-identity suffix and part of the dump
// formats, so it must stay stable (strconv.Quote renders exactly what
// %q did).
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// Series is one named, labelled sample stream stored as a ring of
// encoded chunks. Access it through the DB; the DB's lock guards it.
type Series struct {
	Name   string
	Labels Labels

	chunks   []chunk // oldest first; the last one is open for appends
	st       encState
	count    int // samples currently retained
	appended int // samples ever accepted (never decremented by eviction)
	dropped  int // out-of-order or non-finite appends turned away
}

// key returns the series identity the DB indexes and sorts by.
func (s *Series) key() string { return s.Name + s.Labels.String() }

// append encodes one sample, sealing and evicting chunks as needed.
func (s *Series) append(maxSamples, slot int, value float64) bool {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		// Non-finite values have no place in a dump that must be valid
		// CSV/JSON; reject like obs.Histogram rejects NaN/−Inf.
		s.dropped++
		return false
	}
	if s.count > 0 && slot < s.chunks[len(s.chunks)-1].last {
		// Slots must be non-decreasing per series: the delta coder and
		// every window query depend on order. A late sample is dropped,
		// not reordered — determinism over completeness.
		s.dropped++
		return false
	}
	if len(s.chunks) == 0 || s.chunks[len(s.chunks)-1].n >= chunkCap {
		s.chunks = append(s.chunks, chunk{})
		s.st = encState{}
	}
	s.chunks[len(s.chunks)-1].appendSample(&s.st, slot, value)
	s.count++
	s.appended++
	for s.count > maxSamples && len(s.chunks) > 1 {
		s.count -= s.chunks[0].n
		s.chunks = s.chunks[1:]
	}
	return true
}

// lastPoint returns the newest sample without decoding: the open
// chunk's last slot plus the encoder's carried value bits.
func (s *Series) lastPoint() (Point, bool) {
	if s.count == 0 {
		return Point{}, false
	}
	return Point{Slot: s.chunks[len(s.chunks)-1].last, Value: math.Float64frombits(s.st.lastBits)}, true
}

// points decodes every retained sample, oldest first.
func (s *Series) points() []Point {
	out := make([]Point, 0, s.count)
	for i := range s.chunks {
		out = s.chunks[i].decode(out)
	}
	return out
}

// Config tunes a DB. The zero value selects the documented defaults.
type Config struct {
	// SamplesPerSeries bounds each series' retained samples (default
	// 8192 ≈ 28 simulated days at a 2-slot scrape cadence). Eviction
	// is chunk-granular, so up to chunkCap−1 extra samples may
	// transiently survive.
	SamplesPerSeries int
}

// DB is the store. Construct with New; the zero value is not usable.
type DB struct {
	mu     sync.Mutex
	max    int
	series map[string]*Series
}

// New builds an empty DB.
func New(cfg Config) *DB {
	if cfg.SamplesPerSeries <= 0 {
		cfg.SamplesPerSeries = 8192
	}
	return &DB{max: cfg.SamplesPerSeries, series: make(map[string]*Series)}
}

// Append records one sample into the series (name, labels), creating
// it on first use. It reports whether the sample was stored: NaN/±Inf
// values and slot regressions are counted and dropped (see
// Series.append). Labels must be L-built (sorted); Append takes
// ownership of the slice.
func (db *DB) Append(name string, labels Labels, slot int, value float64) bool {
	key := name + labels.String()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.seriesLocked(key, name, labels).append(db.max, slot, value)
}

// seriesLocked resolves a key to its series, creating it on first
// use. Callers hold db.mu.
func (db *DB) seriesLocked(key, name string, labels Labels) *Series {
	s, ok := db.series[key]
	if !ok {
		s = &Series{Name: name, Labels: labels}
		db.series[key] = s
	}
	return s
}

// Handle is a resolved series reference — the cached fast path for a
// fixed-shape writer (the scraper, the SLO engine) that would
// otherwise rebuild the same name+labels key string on every append.
// A Handle stays valid for the DB's lifetime: series are never
// removed, only their oldest chunks are.
type Handle struct {
	db *DB
	s  *Series
}

// Handle resolves (name, labels) once, creating the series on first
// use. Labels must be L-built; the DB takes ownership of the slice.
func (db *DB) Handle(name string, labels Labels) *Handle {
	key := name + labels.String()
	db.mu.Lock()
	defer db.mu.Unlock()
	return &Handle{db: db, s: db.seriesLocked(key, name, labels)}
}

// Append records one sample through the handle, with DB.Append's
// exact semantics minus the key construction.
func (h *Handle) Append(slot int, value float64) bool {
	h.db.mu.Lock()
	defer h.db.mu.Unlock()
	return h.s.append(h.db.max, slot, value)
}

// SeriesData is one fully decoded series.
type SeriesData struct {
	Name   string
	Labels Labels
	Points []Point
}

// All returns every series decoded, sorted by the canonical key
// (name + label string) — the order the dumps use.
func (db *DB) All() []SeriesData {
	db.mu.Lock()
	defer db.mu.Unlock()
	keys := make([]string, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SeriesData, 0, len(keys))
	for _, k := range keys {
		s := db.series[k]
		out = append(out, SeriesData{Name: s.Name, Labels: append(Labels(nil), s.Labels...), Points: s.points()})
	}
	return out
}

// Points returns the decoded samples of one series, nil when it does
// not exist.
func (db *DB) Points(name string, labels Labels) []Point {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[name+labels.String()]
	if !ok {
		return nil
	}
	return s.points()
}

// NumSeries reports the number of series held.
func (db *DB) NumSeries() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.series)
}

// Dropped reports the total samples rejected across all series
// (non-finite values, slot regressions).
func (db *DB) Dropped() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, s := range db.series {
		n += s.dropped
	}
	return n
}
