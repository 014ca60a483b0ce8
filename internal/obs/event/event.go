// Package event is the reproduction's deterministic flight recorder:
// a slot-indexed structured event log answering *what happened when*,
// the companion of internal/obs's *how much*. A fleet failover run —
// breaker trips, drains, checkpoint migrations, re-prices — leaves a
// causally ordered trace that can be replayed, diffed, and exported
// to standard viewers.
//
// Three design rules, matching internal/obs's determinism contract:
//
//   - No wall-clock reads ever enter a recorded event. Every event is
//     stamped with the simulated slot it happened in plus a global
//     emission sequence number; one seed yields one byte sequence per
//     export format, on every run.
//   - A nil *Recorder is the Noop recorder and the default everywhere:
//     every method is nil-safe and returns immediately, so
//     uninstrumented seeded runs stay byte-identical to
//     pre-instrumentation output.
//   - One storage mode: the recorder keeps every event and span it is
//     given, appending into storage that Reset keeps. A per-slot value
//     series (EmitSeries, the price stream) is stored as the series
//     and expanded into its events only when they are read.
//
// Causality is modelled Dapper-style: every event belongs to a span,
// spans form a tree rooted at the job (the fleet controller opens the
// root span, each leg opens a child), and the recorder maintains a
// current-span stack so instrumented layers that know nothing about
// jobs (the cloud region, the retry policy, the checkpoint volume)
// still attribute their events to the right branch. The simulation
// advances in single-goroutine lockstep, which is what makes a
// recorder-level current span well defined — and why the recorder is
// deliberately unsynchronized: a lock on the emit hot path would cost
// more than the emit itself. Confine a live recorder to one goroutine
// at a time (the experiment sweeps hand it to run 0 only) and
// establish the usual happens-before — a WaitGroup join — before
// exporting from another goroutine.
package event

import (
	"fmt"
	"math"
)

// Kind labels a recorded event. The wire names (String) are part of
// the export format and must stay stable.
type Kind uint8

const (
	// KindUnknown is the zero Kind; it never appears in emitted events
	// from instrumented packages.
	KindUnknown Kind = iota
	// BidSubmitted: a spot request was accepted by the cloud API.
	BidSubmitted
	// BidAccepted: an open request cleared the price and launched.
	BidAccepted
	// OutBid: the provider terminated an instance whose bid fell
	// below π(t).
	OutBid
	// OutBidDelayed: an out-bid notice was deferred by the fault
	// injector (EC2's two-minute warning); Value carries the delay in
	// slots.
	OutBidDelayed
	// LaunchBlocked: a capacity outage refused an above-price launch.
	LaunchBlocked
	// PriceSet: the slot's spot price π(t) changed (first observation
	// included).
	PriceSet
	// RetryAttempt: a transient API failure was absorbed by the retry
	// policy; Value carries the failed attempt number.
	RetryAttempt
	// FallbackOnDemand: the client (or the fleet, escalating)
	// abandoned the spot attempt and ran on-demand; Cause carries why.
	FallbackOnDemand
	// BreakerTransition: a fleet member's circuit breaker changed
	// state; Value carries the new state and Vec the health-score
	// vector at transition time.
	BreakerTransition
	// Drain: the fleet controller began shutting an aborted leg down.
	Drain
	// Migrate: a drained job was handed to a sibling region.
	Migrate
	// CheckpointExport: a job's durable checkpoint left a volume.
	CheckpointExport
	// CheckpointImport: a migrated checkpoint was installed.
	CheckpointImport
	// LegComplete: one leg of a job finished; Value carries its cost.
	LegComplete
	// Alert: an SLO burn-rate alert transitioned; Subject names the
	// SLO, Cause is "firing" or "resolved", Value carries the burn.
	Alert

	numKinds
)

var kindNames = [numKinds]string{
	KindUnknown:       "unknown",
	BidSubmitted:      "bid-submitted",
	BidAccepted:       "bid-accepted",
	OutBid:            "out-bid",
	OutBidDelayed:     "out-bid-delayed",
	LaunchBlocked:     "launch-blocked",
	PriceSet:          "price-set",
	RetryAttempt:      "retry-attempt",
	FallbackOnDemand:  "fallback-on-demand",
	BreakerTransition: "breaker-transition",
	Drain:             "drain",
	Migrate:           "migrate",
	CheckpointExport:  "checkpoint-export",
	CheckpointImport:  "checkpoint-import",
	LegComplete:       "leg-complete",
	Alert:             "alert",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// SpanID identifies a span. 0 is "no span".
type SpanID uint64

// Event is one recorded happening.
type Event struct {
	// Slot is the simulated slot the event happened in.
	Slot int
	// Value is the kind-specific number: a price, a bid, a delay in
	// slots, an attempt count, a breaker state, a leg cost.
	Value float64
	// Span is the owning span. Left zero by the emitter, it is filled
	// with the recorder's current span.
	Span SpanID
	// Kind is the event type.
	Kind Kind
	// Region names the region the event concerns ("" when global).
	Region string
	// Job names the job ("" when the emitter doesn't know; the span
	// tree supplies the job then).
	Job string
	// Subject is the request/instance/operation/type the event is
	// about.
	Subject string
	// Cause is a human-readable why ("" when self-evident).
	Cause string
	// Vec carries a kind-specific vector (e.g. the health-score terms
	// attached to a BreakerTransition). The recorder takes ownership:
	// emitters must not mutate the slice afterwards. Emitting a vec
	// event costs its caller one small allocation; every hot-path event
	// kind emits with a nil Vec.
	Vec []float64
	// Seq is the global emission order (0-based). Within a slot it is
	// the causal order: the single-goroutine simulation emits in
	// program order.
	Seq uint64
}

// Span is one node of the causal tree.
type Span struct {
	// ID is the span's identity (1-based, monotonically increasing in
	// begin order).
	ID SpanID
	// Parent is the enclosing span (0 for a root).
	Parent SpanID
	// Name labels the span ("job:demo", "leg:persistent", ...).
	Name string
	// Job and Region carry the owning job and hosting region.
	Job    string
	Region string
	// StartSlot and EndSlot bound the span; EndSlot is -1 while open.
	StartSlot, EndSlot int
}

// Open reports whether the span has not ended.
func (s Span) Open() bool { return s.EndSlot < 0 }

// Noop is the nil recorder: every operation on it is a no-op. It
// exists for documentation; passing a literal nil *Recorder is
// equivalent.
var Noop *Recorder

// Recorder is the flight recorder. Construct with NewRecorder; a nil
// *Recorder is the Noop recorder. Not synchronized: a recorder belongs
// to one goroutine at a time (see the package comment).
type Recorder struct {
	events []Event  // single emits, in Seq order
	series []series // EmitSeries calls, in Seq order
	n      uint64   // events recorded; Seq of the next event

	spans []Span   // in ID order: span id is spans[id-1]
	stack []SpanID // current-span stack; top is the current span
}

// series is one EmitSeries call as given: the template, its Span
// filled and its Seq that of the series' first event, and the
// caller's values.
type series struct {
	tmpl   Event
	values []float64
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit records one event: a zero Span is filled with the current span,
// and the event's Seq is assigned in emission order. The argument is
// only read — callers may reuse one Event as a template across emits.
// A nil recorder ignores the call.
func (r *Recorder) Emit(ev *Event) {
	if r == nil {
		return
	}
	e := *ev
	if e.Span == 0 && len(r.stack) > 0 {
		e.Span = r.stack[len(r.stack)-1]
	}
	e.Seq = r.n
	r.events = append(r.events, e)
	r.n++
}

// EmitSeries records tmpl once per change in a per-slot value series:
// element i becomes one event with Slot i and Value values[i] whenever
// it differs from element i-1 (element 0 always does). The events read
// back exactly as per-change Emit calls would, but the call stores only
// the template, with its span filled here, and the slice: it costs one
// pass that counts the changes. The recorder takes ownership of values,
// as of a Vec: callers must not mutate it afterwards. The price-trace
// generator passes its memoized prices, which nothing mutates: per-slot
// price streams are by far the densest event source, and under i.i.d.
// pricing every slot is a change. A nil recorder ignores the call.
func (r *Recorder) EmitSeries(tmpl Event, values []float64) {
	if r == nil || len(values) == 0 {
		return
	}
	if tmpl.Span == 0 && len(r.stack) > 0 {
		tmpl.Span = r.stack[len(r.stack)-1]
	}
	tmpl.Seq = r.n
	r.series = append(r.series, series{tmpl: tmpl, values: values})
	n, last := r.n, math.NaN() // NaN != NaN, so element 0 always counts
	for _, v := range values {
		if v != last {
			n++
		}
		last = v
	}
	r.n = n
}

// appendTo appends the series' events to out, in Seq order.
func (s *series) appendTo(out []Event) []Event {
	ev, last := s.tmpl, math.NaN()
	for i, v := range s.values {
		if v == last {
			continue
		}
		last = v
		ev.Slot, ev.Value = i, v
		out = append(out, ev)
		ev.Seq++
	}
	return out
}

// BeginSpan opens a span under the current span (a root when none is
// open), makes it current, and returns its ID. A nil recorder returns
// 0 (which EndSpan ignores).
func (r *Recorder) BeginSpan(name, job, region string, slot int) SpanID {
	if r == nil {
		return 0
	}
	var parent SpanID
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Job: job,
		Region: region, StartSlot: slot, EndSlot: -1})
	r.stack = append(r.stack, id)
	return id
}

// EndSpan closes the span at endSlot and pops the current-span stack
// back to the span's parent. Ending a span that still has open
// children abandons them (they are popped too — the crash-teardown
// semantics a flight recorder wants). Unknown or zero IDs are ignored,
// as is a second End.
func (r *Recorder) EndSpan(id SpanID, endSlot int) {
	if r == nil || id == 0 {
		return
	}
	if sp := r.lookup(id); sp != nil && sp.EndSlot < 0 {
		sp.EndSlot = endSlot
	}
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == id {
			r.stack = r.stack[:i]
			break
		}
	}
}

// lookup returns the live storage of span id, nil when never begun.
func (r *Recorder) lookup(id SpanID) *Span {
	if id == 0 || uint64(id) > uint64(len(r.spans)) {
		return nil
	}
	return &r.spans[id-1]
}

// Current reports the current span (0 when none is open). A nil
// recorder reports 0.
func (r *Recorder) Current() SpanID {
	if r == nil {
		return 0
	}
	if len(r.stack) == 0 {
		return 0
	}
	return r.stack[len(r.stack)-1]
}

// Events returns a copy of the events in emission (Seq) order, each
// series expanded in its place among the single emits. A nil recorder
// returns nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out, singles := make([]Event, 0, r.n), r.events
	for i := range r.series {
		s := &r.series[i]
		k := 0
		for k < len(singles) && singles[k].Seq < s.tmpl.Seq {
			k++
		}
		out = s.appendTo(append(out, singles[:k]...))
		singles = singles[k:]
	}
	return append(out, singles...)
}

// Spans returns a copy of the spans in begin (ID) order. A nil
// recorder returns nil.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// SpanByID returns the span (false when never begun, or on the nil
// recorder).
func (r *Recorder) SpanByID(id SpanID) (Span, bool) {
	if r == nil {
		return Span{}, false
	}
	sp := r.lookup(id)
	if sp == nil {
		return Span{}, false
	}
	return *sp, true
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(r.n)
}

// Reset discards all events, spans, and the current-span stack. It
// keeps the storage, so a reused recorder appends without
// reallocating, and drops its references to the series it was given.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	clear(r.series)
	r.events, r.series, r.spans, r.stack = r.events[:0], r.series[:0], r.spans[:0], r.stack[:0]
	r.n = 0
}
