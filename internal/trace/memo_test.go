package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/obs/event"
)

// generateInstrumented runs one generation with a fresh registry and
// recorder and returns the trace plus the full observable record:
// metrics snapshot JSON and JSONL trace export.
func generateInstrumented(t *testing.T, opt GenOptions) (*Trace, []byte, []byte) {
	t.Helper()
	met := obs.New()
	rec := event.NewRecorder(event.Config{Unbounded: true})
	opt.Metrics = met
	opt.Trace = rec
	tr, err := Generate(instances.R3XLarge, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := met.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return tr, snap, jsonl.Bytes()
}

// TestMemoHitIsObservablyIdentical: a cache hit must be byte-for-byte
// indistinguishable from the generation it replays — same prices, same
// metrics snapshot JSON, same flight-recorder export — and must
// actually share the backing series rather than copy it.
func TestMemoHitIsObservablyIdentical(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	for _, opt := range []GenOptions{
		{Days: 2, Seed: 11},                     // dwell model (default 18)
		{Days: 2, Seed: 11, DwellSlots: 1},      // literal i.i.d.
		{Days: 2, Seed: 11, FullDynamics: true}, // queue simulator
	} {
		miss, missSnap, missJSONL := generateInstrumented(t, opt)
		hit, hitSnap, hitJSONL := generateInstrumented(t, opt)
		if !reflect.DeepEqual(miss.Prices, hit.Prices) {
			t.Fatalf("%+v: hit prices differ from miss prices", opt)
		}
		if !bytes.Equal(missSnap, hitSnap) {
			t.Fatalf("%+v: metrics snapshots differ:\nmiss %s\nhit  %s", opt, missSnap, hitSnap)
		}
		if !bytes.Equal(missJSONL, hitJSONL) {
			t.Fatalf("%+v: JSONL exports differ", opt)
		}
	}
}

// TestMemoSharesBacking: two generations of the same configuration
// return one shared immutable price series (the zero-copy contract);
// a different seed gets its own.
func TestMemoSharesBacking(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	a, err := Generate(instances.R3XLarge, GenOptions{Days: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(instances.R3XLarge, GenOptions{Days: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Prices[0] != &b.Prices[0] {
		t.Fatal("identical generations do not share the cached series")
	}
	other, err := Generate(instances.R3XLarge, GenOptions{Days: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Prices[0] == &other.Prices[0] {
		t.Fatal("different seeds share a series")
	}
	hits, misses := MemoStats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

// TestMemoNormalizesDefaults: explicit defaults and zero values are one
// cache entry.
func TestMemoNormalizesDefaults(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	a, err := Generate(instances.R3XLarge, GenOptions{Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(instances.R3XLarge, GenOptions{Days: 1, Seed: 1, DwellSlots: 18})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Prices[0] != &b.Prices[0] {
		t.Fatal("defaulted and explicit options did not share an entry")
	}
}

// TestMemoDisabled: capacity ≤ 0 turns the cache off — every call runs
// the generator, results stop aliasing but stay value-identical.
func TestMemoDisabled(t *testing.T) {
	SetMemoCapacity(0)
	defer SetMemoCapacity(DefaultMemoCapacity)
	a, err := Generate(instances.R3XLarge, GenOptions{Days: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(instances.R3XLarge, GenOptions{Days: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Prices[0] == &b.Prices[0] {
		t.Fatal("disabled cache still shared a series")
	}
	if !reflect.DeepEqual(a.Prices, b.Prices) {
		t.Fatal("uncached regenerations differ")
	}
}

// TestMemoEviction: the LRU keeps at most capacity entries and evicts
// the least recently used first.
func TestMemoEviction(t *testing.T) {
	SetMemoCapacity(2)
	defer SetMemoCapacity(DefaultMemoCapacity)
	gen := func(seed int64) *Trace {
		tr, err := Generate(instances.R3XLarge, GenOptions{Days: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a1 := gen(1)
	gen(2)
	a2 := gen(1) // refresh seed 1
	if &a1.Prices[0] != &a2.Prices[0] {
		t.Fatal("seed 1 evicted too early")
	}
	gen(3) // evicts seed 2 (LRU), not seed 1
	a3 := gen(1)
	if &a1.Prices[0] != &a3.Prices[0] {
		t.Fatal("LRU evicted the most recently used entry")
	}
	b2 := gen(2) // regenerated: fresh backing
	if !reflect.DeepEqual(b2.Prices, gen(2).Prices) {
		t.Fatal("regenerated series differs")
	}
}

// TestMemoFullDynamicsMetricsBypass: FullDynamics + Metrics records
// unreplayable per-slot market.* series, so that combination must
// bypass the cache in both directions — never served from it, never
// stored into it.
func TestMemoFullDynamicsMetricsBypass(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	opt := GenOptions{Days: 1, Seed: 7, FullDynamics: true}

	// Prime the cache via the metrics-free path.
	plain, err := Generate(instances.R3XLarge, opt)
	if err != nil {
		t.Fatal(err)
	}

	run := func() (*Trace, []byte) {
		met := obs.New()
		o := opt
		o.Metrics = met
		tr, err := Generate(instances.R3XLarge, o)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := met.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return tr, snap
	}
	m1, s1 := run()
	if &m1.Prices[0] == &plain.Prices[0] {
		t.Fatal("FullDynamics+Metrics generation was served from the cache")
	}
	m2, s2 := run()
	if &m2.Prices[0] == &m1.Prices[0] {
		t.Fatal("FullDynamics+Metrics generation was stored in the cache")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("simulator metrics are not deterministic")
	}
	if !reflect.DeepEqual(plain.Prices, m1.Prices) {
		t.Fatal("metrics-instrumented simulation changed the prices")
	}
}

// recorded returns what m and rec hold: the metrics snapshot JSON,
// without the queue simulator's market.* series when dropMarket is
// set, and the JSONL trace export.
func recorded(t *testing.T, m *obs.Registry, rec *event.Recorder, dropMarket bool) ([]byte, []byte) {
	t.Helper()
	snap := m.Snapshot()
	if dropMarket {
		keep := func(name string) bool { return !strings.HasPrefix(name, "market.") }
		var hs []obs.HistSnap
		for _, h := range snap.Histograms {
			if keep(h.Name) {
				hs = append(hs, h)
			}
		}
		var cs []obs.CounterSnap
		for _, c := range snap.Counters {
			if keep(c.Name) {
				cs = append(cs, c)
			}
		}
		snap.Histograms, snap.Counters = hs, cs
	}
	js, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return js, jsonl.Bytes()
}

// TestRecordGenerationMatchesGenerate: a quiet Generate followed by
// RecordGeneration records what Generate records with the registry and
// recorder attached — metrics JSON and JSONL bytes — at dwell 1, at
// dwell 18, and under FullDynamics, where Generate's queue simulator
// also records the market.* series that only it records; with the memo
// on (the record step then follows a miss and the reference is a hit)
// and off.
func TestRecordGenerationMatchesGenerate(t *testing.T) {
	defer SetMemoCapacity(DefaultMemoCapacity)
	for _, capacity := range []int{DefaultMemoCapacity, 0} {
		SetMemoCapacity(capacity)
		for _, opt := range []GenOptions{
			{Days: 2, Seed: 11, DwellSlots: 1},
			{Days: 2, Seed: 11, DwellSlots: 18},
			{Days: 2, Seed: 11, FullDynamics: true},
		} {
			quiet, err := Generate(instances.R3XLarge, opt)
			if err != nil {
				t.Fatal(err)
			}
			met, rec := obs.New(), event.NewRecorder(event.Config{Unbounded: true})
			quiet.RecordGeneration(met, rec)
			gotSnap, gotJSONL := recorded(t, met, rec, false)

			ref := opt
			ref.Metrics, ref.Trace = obs.New(), event.NewRecorder(event.Config{Unbounded: true})
			if _, err := Generate(instances.R3XLarge, ref); err != nil {
				t.Fatal(err)
			}
			wantSnap, wantJSONL := recorded(t, ref.Metrics, ref.Trace, opt.FullDynamics)
			if !bytes.Equal(gotSnap, wantSnap) {
				t.Fatalf("memo %d, %+v: RecordGeneration metrics differ from Generate's:\n got  %s\n want %s", capacity, opt, gotSnap, wantSnap)
			}
			if !bytes.Equal(gotJSONL, wantJSONL) {
				t.Fatalf("memo %d, %+v: RecordGeneration JSONL differs from Generate's", capacity, opt)
			}
			if len(gotJSONL) == 0 || !bytes.Contains(gotSnap, []byte("trace.slots_generated")) {
				t.Fatalf("memo %d, %+v: nothing recorded", capacity, opt)
			}
		}
	}
}

// TestMemoRejectsInvalidSeries: a generated series that fails
// validation — FullDynamics over arrivals of infinite mean, whose queue
// prices come out NaN — is neither cached nor recorded: the error comes
// back on every call, each call misses, and neither the recorder nor
// the trace.* metrics hear of it.
func TestMemoRejectsInvalidSeries(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	c, err := CalibrationFor(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	c.PlateauAlpha, c.TailAlpha = 0.5, 0.5
	rec := event.NewRecorder(event.Config{Unbounded: true})
	for call := 1; call <= 2; call++ {
		if _, err := c.Generate(GenOptions{Days: 1, FullDynamics: true, Trace: rec}); err == nil {
			t.Fatalf("call %d: an invalid series was accepted", call)
		}
		if hits, misses := MemoStats(); hits != 0 || misses != uint64(call) {
			t.Fatalf("call %d: memo hits %d, misses %d; want 0, %d", call, hits, misses, call)
		}
	}
	if rec.Emitted() != 0 {
		t.Fatalf("the recorder got %d events from an invalid series", rec.Emitted())
	}
	met := obs.New()
	if _, err := c.Generate(GenOptions{Days: 1, FullDynamics: true, Metrics: met}); err == nil {
		t.Fatal("an invalid series was accepted with a registry attached")
	}
	snap, _ := recorded(t, met, rec, false)
	if bytes.Contains(snap, []byte("trace.")) {
		t.Fatalf("trace.* metrics recorded for an invalid series: %s", snap)
	}
}
