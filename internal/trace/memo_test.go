package trace

import (
	"bytes"
	"reflect"
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
