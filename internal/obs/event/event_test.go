package event

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"unsafe"
)

// TestNilRecorderIsNoop: every method on a nil recorder must be safe
// and inert — the default, uninstrumented path.
func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Emit(&Event{Kind: PriceSet, Slot: 3})
	id := r.BeginSpan("job:x", "x", "home", 0)
	if id != 0 {
		t.Fatalf("nil BeginSpan = %d, want 0", id)
	}
	r.EndSpan(id, 1)
	if r.Current() != 0 || r.Len() != 0 || r.Emitted() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder reported non-zero state")
	}
	if r.Events() != nil || r.Spans() != nil {
		t.Fatal("nil recorder returned non-nil slices")
	}
	if _, ok := r.SpanByID(1); ok {
		t.Fatal("nil SpanByID returned ok")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	buf.Reset()
	if err := r.WriteTimeline(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteTimeline: err=%v len=%d", err, buf.Len())
	}
	buf.Reset()
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil chrome trace is not valid JSON: %v", err)
	}
	r.Reset()
}

// TestSpanStackAttribution: events with a zero Span inherit the
// current span, and the stack nests/unwinds correctly.
func TestSpanStackAttribution(t *testing.T) {
	r := NewRecorder(Config{Unbounded: true})
	root := r.BeginSpan("job:j", "j", "", 0)
	r.Emit(&Event{Kind: Drain, Slot: 1})
	leg := r.BeginSpan("leg:spot", "j", "home", 1)
	r.Emit(&Event{Kind: BidSubmitted, Slot: 1})
	if got := r.Current(); got != leg {
		t.Fatalf("Current = %d, want leg %d", got, leg)
	}
	r.EndSpan(leg, 5)
	r.Emit(&Event{Kind: Migrate, Slot: 5})
	r.EndSpan(root, 6)
	if got := r.Current(); got != 0 {
		t.Fatalf("Current after unwinding = %d, want 0", got)
	}

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Span != root || evs[1].Span != leg || evs[2].Span != root {
		t.Fatalf("span attribution = %d,%d,%d; want %d,%d,%d",
			evs[0].Span, evs[1].Span, evs[2].Span, root, leg, root)
	}
	sp, ok := r.SpanByID(leg)
	if !ok || sp.Parent != root || sp.EndSlot != 5 {
		t.Fatalf("leg span = %+v ok=%v, want parent %d end 5", sp, ok, root)
	}
	if rootSp, _ := r.SpanByID(root); rootSp.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", rootSp.Parent)
	}
}

// TestEndSpanAbandonsChildren: ending a parent with open children
// pops the children too (crash-teardown semantics).
func TestEndSpanAbandonsChildren(t *testing.T) {
	r := NewRecorder(Config{Unbounded: true})
	root := r.BeginSpan("job:j", "j", "", 0)
	r.BeginSpan("leg:spot", "j", "home", 0)
	r.EndSpan(root, 3)
	if got := r.Current(); got != 0 {
		t.Fatalf("Current = %d, want 0 after parent end", got)
	}
	// Double-end and unknown IDs are ignored.
	r.EndSpan(root, 9)
	r.EndSpan(999, 9)
	if sp, _ := r.SpanByID(root); sp.EndSlot != 3 {
		t.Fatalf("root EndSlot = %d, want 3 (double-end ignored)", sp.EndSlot)
	}
}

// TestRingWraparound: a capacity-8 ring that sees 20 events keeps
// exactly the last 8, in Seq order, and reports the rest dropped —
// and the surviving events' span chain stays reconstructable.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, SpanCapacity: 8})
	root := r.BeginSpan("job:j", "j", "", 0)
	for i := 0; i < 20; i++ {
		r.Emit(&Event{Kind: PriceSet, Slot: i, Value: float64(i)})
	}
	evs := r.Events()
	if len(evs) != 8 || r.Len() != 8 {
		t.Fatalf("survivors = %d, want 8", len(evs))
	}
	if r.Dropped() != 12 || r.Emitted() != 20 {
		t.Fatalf("dropped=%d emitted=%d, want 12/20", r.Dropped(), r.Emitted())
	}
	for i, ev := range evs {
		want := uint64(12 + i)
		if ev.Seq != want || ev.Slot != int(want) {
			t.Fatalf("survivor %d: seq=%d slot=%d, want %d", i, ev.Seq, ev.Slot, want)
		}
		// Span-tree reconstructability: every survivor's span resolves.
		sp, ok := r.SpanByID(ev.Span)
		if !ok || sp.ID != root {
			t.Fatalf("survivor %d: span %d did not resolve to root", i, ev.Span)
		}
	}
}

// TestSpanRingEviction: span lookups for overwritten spans fail
// cleanly instead of resolving to the wrong span.
func TestSpanRingEviction(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, SpanCapacity: 2})
	a := r.BeginSpan("a", "", "", 0)
	r.EndSpan(a, 0)
	b := r.BeginSpan("b", "", "", 1)
	r.EndSpan(b, 1)
	c := r.BeginSpan("c", "", "", 2) // overwrites a's arena slot
	if _, ok := r.SpanByID(a); ok {
		t.Fatal("evicted span resolved")
	}
	if sp, ok := r.SpanByID(c); !ok || sp.Name != "c" {
		t.Fatalf("live span did not resolve: %+v ok=%v", sp, ok)
	}
	spans := r.Spans()
	if len(spans) != 2 || spans[0].ID != b || spans[1].ID != c {
		t.Fatalf("Spans() = %+v, want [b c]", spans)
	}
}

// TestEmitZeroAlloc: the bounded emit path must not allocate — the
// flight recorder's always-on guarantee.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64})
	ev := Event{Kind: PriceSet, Slot: 1, Region: "home", Subject: "r3.xlarge", Value: 0.03}
	if allocs := testing.AllocsPerRun(200, func() { r.Emit(&ev) }); allocs != 0 {
		t.Fatalf("Emit allocates %v per op, want 0", allocs)
	}
}

// TestEmitSeriesEquivalence: the batch path must produce exactly the
// events of per-change Emit calls — including across a ring lap,
// where it switches to the two-word fast path — in both modes.
func TestEmitSeriesEquivalence(t *testing.T) {
	series := []float64{0.03, 0.03, 0.05, 0.05, 0.05, 0.03, 0.07, 0.07, 0.04, 0.04, 0.09, 0.02, 0.02, 0.06}
	tmpl := Event{Kind: PriceSet, Region: "generator", Subject: "r3.xlarge"}
	for _, cfg := range []Config{
		{Unbounded: true},
		{Capacity: 4, SpanCapacity: 4}, // series has 9 changes: laps the ring
	} {
		batch := NewRecorder(cfg)
		loop := NewRecorder(cfg)
		// A current span on both, so the batch path's span fill is covered.
		batch.BeginSpan("job:j", "j", "", 0)
		loop.BeginSpan("job:j", "j", "", 0)
		batch.EmitSeries(tmpl, series)
		last := series[0] + 1
		for i, p := range series {
			if p == last {
				continue
			}
			last = p
			ev := tmpl
			ev.Slot, ev.Value = i, p
			loop.Emit(&ev)
		}
		a, b := batch.Events(), loop.Events()
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("cfg %+v: %d batch events vs %d loop events", cfg, len(a), len(b))
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].Slot != b[i].Slot || a[i].Value != b[i].Value ||
				a[i].Kind != b[i].Kind || a[i].Span != b[i].Span ||
				a[i].Region != b[i].Region || a[i].Subject != b[i].Subject {
				t.Fatalf("cfg %+v event %d: batch %+v != loop %+v", cfg, i, a[i], b[i])
			}
		}
		if batch.Emitted() != loop.Emitted() || batch.Dropped() != loop.Dropped() {
			t.Fatalf("cfg %+v: emitted/dropped diverge: %d/%d vs %d/%d",
				cfg, batch.Emitted(), batch.Dropped(), loop.Emitted(), loop.Dropped())
		}
	}
}

// TestEmitSeriesZeroAlloc: the bounded batch path shares Emit's
// always-on guarantee.
func TestEmitSeriesZeroAlloc(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64})
	tmpl := Event{Kind: PriceSet, Region: "home", Subject: "r3.xlarge"}
	series := []float64{0.03, 0.04, 0.05, 0.03, 0.06, 0.07, 0.03}
	if allocs := testing.AllocsPerRun(100, func() { r.EmitSeries(tmpl, series) }); allocs != 0 {
		t.Fatalf("EmitSeries allocates %v per op, want 0", allocs)
	}
}

// TestEventLayout: Event is sized to two cache lines, with the fields
// the hot emit path always stores in the first — the layout the emit
// optimizations (and the 128 KB L2-resident default arena) assume. A
// new field means revisiting DefaultCapacity and the field order in
// Emit, not just this constant.
func TestEventLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is specified for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got != 128 {
		t.Fatalf("sizeof(Event) = %d, want 128 (two cache lines)", got)
	}
	if off := unsafe.Offsetof(Event{}.Subject); off < 64 {
		t.Fatalf("Subject at offset %d: rarely-stored fields belong in the second line", off)
	}
	if off := unsafe.Offsetof(Event{}.Region); off >= 64 {
		t.Fatalf("Region at offset %d: hot fields belong in the first line", off)
	}
}

// populate fills a recorder with a representative mixed trace.
func populate(r *Recorder) {
	root := r.BeginSpan("job:demo", "demo", "", 100)
	r.Emit(&Event{Kind: PriceSet, Slot: 100, Region: "home", Subject: "r3.xlarge", Value: 0.03})
	leg := r.BeginSpan("leg:persistent", "demo", "home", 100)
	r.Emit(&Event{Kind: BidSubmitted, Slot: 100, Region: "home", Subject: "req-0", Value: 0.50})
	r.Emit(&Event{Kind: BidAccepted, Slot: 101, Region: "home", Subject: "inst-0"})
	r.Emit(&Event{Kind: BreakerTransition, Slot: 110, Region: "home", Cause: "outage",
		Value: 1, Vec: []float64{0.9, 0, 0, 1, 0, 0.62}})
	r.Emit(&Event{Kind: Drain, Slot: 110, Region: "home", Job: "demo"})
	r.EndSpan(leg, 110)
	r.Emit(&Event{Kind: Migrate, Slot: 110, Region: "away", Job: "demo", Cause: "breaker-open"})
	r.EndSpan(root, 140)
}

// TestExportDeterminism: the same trace exported twice, once through
// the format's Exporter (and a second identically built recorder),
// yields byte-identical output in every format.
func TestExportDeterminism(t *testing.T) {
	r1 := NewRecorder(Config{Unbounded: true})
	r2 := NewRecorder(Config{Unbounded: true})
	populate(r1)
	populate(r2)
	for _, f := range []struct {
		name  string
		write func(*Recorder, io.Writer) error
	}{
		{"jsonl", (*Recorder).WriteJSONL},
		{"chrome", (*Recorder).WriteChromeTrace},
		{"timeline", (*Recorder).WriteTimeline},
	} {
		export, err := Exporter(f.name)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		var a, b, c bytes.Buffer
		if err := f.write(r1, &a); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if err := export(r1, &b); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if err := f.write(r2, &c); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: re-export through Exporter differs", f.name)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Fatalf("%s: identical run differs", f.name)
		}
		if a.Len() == 0 {
			t.Fatalf("%s: empty export", f.name)
		}
	}
	if _, err := Exporter("bogus"); err == nil {
		t.Error("Exporter accepted an unknown format")
	}
}

// TestChromeTraceSchema: the Chrome export must be valid trace-event
// JSON — the object form with a traceEvents array whose entries all
// carry name/ph/pid/tid, "X" entries ts+dur, and "i" entries ts+s.
func TestChromeTraceSchema(t *testing.T) {
	r := NewRecorder(Config{Unbounded: true})
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string          `json:"name"`
			Phase string          `json:"ph"`
			PID   *int            `json:"pid"`
			TID   *int            `json:"tid"`
			TS    *int            `json:"ts"`
			Dur   *int            `json:"dur"`
			Scope string          `json:"s"`
			Args  json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) == 0 {
		t.Fatal("missing displayTimeUnit or traceEvents")
	}
	var slices, instants, meta int
	for i, te := range doc.TraceEvents {
		if te.Name == "" || te.PID == nil || te.TID == nil {
			t.Fatalf("entry %d: missing name/pid/tid: %+v", i, te)
		}
		switch te.Phase {
		case "M":
			meta++
		case "X":
			slices++
			if te.TS == nil || te.Dur == nil || *te.Dur < 1 {
				t.Fatalf("entry %d: X without ts/dur ≥ 1", i)
			}
		case "i":
			instants++
			if te.TS == nil || te.Scope == "" {
				t.Fatalf("entry %d: instant without ts/s", i)
			}
		default:
			t.Fatalf("entry %d: unexpected phase %q", i, te.Phase)
		}
	}
	if meta == 0 || slices != 2 || instants != 6 {
		t.Fatalf("meta=%d slices=%d instants=%d, want >0/2/6", meta, slices, instants)
	}
	// Slots map to the µs timeline: the root span starts at ts=100.
	found := false
	for _, te := range doc.TraceEvents {
		if te.Phase == "X" && te.Name == "job:demo" {
			found = true
			if *te.TS != 100 || *te.Dur != 40 {
				t.Fatalf("job span ts=%d dur=%d, want 100/40", *te.TS, *te.Dur)
			}
		}
	}
	if !found {
		t.Fatal("job:demo slice missing")
	}
}

// TestTimelineRendering: smoke-check the text renderer — slot stamps,
// kind names, span labels, drop notice.
func TestTimelineRendering(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4, SpanCapacity: 4})
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"slot 000110", "migrate", "earlier events overwritten"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestKindNames: wire names are stable and exhaustive.
func TestKindNames(t *testing.T) {
	for k := KindUnknown; k < numKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no wire name", k)
		}
	}
	if BidSubmitted.String() != "bid-submitted" || CheckpointImport.String() != "checkpoint-import" {
		t.Fatal("wire names changed — export format break")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatal("out-of-range kind formatting")
	}
}

// TestReset: a reset bounded recorder reuses its arenas and starts
// clean.
func TestReset(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, SpanCapacity: 4})
	populate(r)
	r.Reset()
	if r.Len() != 0 || r.Emitted() != 0 || r.Current() != 0 || len(r.Spans()) != 0 {
		t.Fatal("reset recorder not clean")
	}
	r.Emit(&Event{Kind: PriceSet, Slot: 1})
	if evs := r.Events(); len(evs) != 1 || evs[0].Seq != 0 {
		t.Fatalf("post-reset emit: %+v", r.Events())
	}
}
