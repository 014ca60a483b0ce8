package event

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
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
	if r.Current() != 0 || r.Len() != 0 {
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
	r := NewRecorder()
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
	r := NewRecorder()
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

// TestEmitZeroAlloc: once a Reset has kept its storage, an emit
// appends into it without allocating.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRecorder()
	ev := Event{Kind: PriceSet, Slot: 1, Region: "home", Subject: "r3.xlarge", Value: 0.03}
	for i := 0; i < 256; i++ {
		r.Emit(&ev)
	}
	r.Reset()
	if allocs := testing.AllocsPerRun(200, func() { r.Emit(&ev) }); allocs != 0 {
		t.Fatalf("Emit allocates %v per op, want 0", allocs)
	}
}

// emitEach records a series the long way, one Emit per change: what
// EmitSeries must read back as.
func emitEach(r *Recorder, tmpl Event, values []float64) {
	last := math.NaN()
	for i, v := range values {
		if v == last {
			continue
		}
		last = v
		ev := tmpl
		ev.Slot, ev.Value = i, v
		r.Emit(&ev)
	}
}

// TestEmitSeriesEquivalence: two series interleaved with single emits
// and a span change read back exactly as the per-change Emit calls —
// each series in its place in Seq order, its events in the span that
// was current at the call.
func TestEmitSeriesEquivalence(t *testing.T) {
	a := []float64{0.03, 0.03, 0.05, 0.05, 0.05, 0.03, 0.07, 0.07}
	b := []float64{0.04, 0.04, 0.09, 0.02, 0.02, 0.06}
	tmpl := Event{Kind: PriceSet, Region: "generator", Subject: "r3.xlarge"}
	var leg SpanID
	play := func(r *Recorder, series func(*Recorder, Event, []float64)) {
		r.BeginSpan("job:j", "j", "", 0)
		r.Emit(&Event{Kind: BidSubmitted, Slot: 0, Subject: "req-0"})
		series(r, tmpl, a)
		r.Emit(&Event{Kind: BidAccepted, Slot: 1, Subject: "inst-0"})
		leg = r.BeginSpan("leg:spot", "j", "home", 2)
		other := tmpl
		other.Subject = "c3.4xlarge"
		series(r, other, b)
		r.EndSpan(leg, 5)
		r.Emit(&Event{Kind: OutBid, Slot: 5})
	}
	batch, loop := NewRecorder(), NewRecorder()
	play(batch, (*Recorder).EmitSeries)
	play(loop, emitEach)
	got, want := batch.Events(), loop.Events()
	if len(want) != 11 || batch.Len() != len(want) {
		t.Fatalf("batch Len %d, %d loop events; want 11", batch.Len(), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch events differ from per-change emits:\n got %+v\nwant %+v", got, want)
	}
	if got[6].Subject != "c3.4xlarge" || got[6].Span != leg {
		t.Fatalf("second series' first event %+v, want subject c3.4xlarge in span %d", got[6], leg)
	}
}

// TestEmitSeriesZeroAlloc: once a Reset has kept its storage, a series
// is stored without allocating.
func TestEmitSeriesZeroAlloc(t *testing.T) {
	r := NewRecorder()
	tmpl := Event{Kind: PriceSet, Region: "home", Subject: "r3.xlarge"}
	series := []float64{0.03, 0.04, 0.05, 0.03, 0.06, 0.07, 0.03}
	for i := 0; i < 128; i++ {
		r.EmitSeries(tmpl, series)
	}
	r.Reset()
	if allocs := testing.AllocsPerRun(100, func() { r.EmitSeries(tmpl, series) }); allocs != 0 {
		t.Fatalf("EmitSeries allocates %v per op, want 0", allocs)
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
	r1 := NewRecorder()
	r2 := NewRecorder()
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
	r := NewRecorder()
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
// kind names, span labels.
func TestTimelineRendering(t *testing.T) {
	r := NewRecorder()
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"slot 000110", "migrate", "[leg:persistent]"} {
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

// TestReset: a reset recorder starts clean, numbers its events and
// spans from 0 and 1 again, drops its references to the series it was
// given, and records the next trace into the storage it kept.
func TestReset(t *testing.T) {
	r := NewRecorder()
	populate(r)
	r.EmitSeries(Event{Kind: PriceSet}, []float64{0.03, 0.04})
	r.Reset()
	if r.Len() != 0 || r.Current() != 0 || len(r.Spans()) != 0 || len(r.Events()) != 0 {
		t.Fatal("reset recorder not clean")
	}
	if r.series[:1][0].values != nil {
		t.Fatal("reset kept a reference to a series")
	}
	series := []float64{0.03, 0.04}
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset()
		r.BeginSpan("job:j", "j", "", 1)
		r.Emit(&Event{Kind: PriceSet, Slot: 1})
		r.EmitSeries(Event{Kind: PriceSet}, series)
	})
	if allocs != 0 {
		t.Fatalf("a reset recorder allocates %v per trace, want 0", allocs)
	}
	if evs := r.Events(); len(evs) != 3 || evs[0].Seq != 0 || evs[0].Span != 1 || r.Spans()[0].ID != 1 {
		t.Fatalf("post-reset trace: events %+v, spans %+v", evs, r.Spans())
	}
}
