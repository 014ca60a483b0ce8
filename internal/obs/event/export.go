package event

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Exporters. All three formats are deterministic: spans are written
// in ID order, events in Seq order, and every JSON object is either a
// struct (field order fixed at compile time) or a map serialized by
// encoding/json, which sorts keys. One seed → one byte sequence per
// format.

// Exporter returns the export method for a format name: "jsonl",
// "chrome" or "timeline". A command resolves its format flag here
// before it records anything, so a bad name fails before the run.
func Exporter(format string) (func(*Recorder, io.Writer) error, error) {
	switch format {
	case "jsonl":
		return (*Recorder).WriteJSONL, nil
	case "chrome":
		return (*Recorder).WriteChromeTrace, nil
	case "timeline":
		return (*Recorder).WriteTimeline, nil
	}
	return nil, fmt.Errorf("unknown trace format %q (want jsonl, chrome, or timeline)", format)
}

// jsonlSpan is the JSONL wire form of a Span.
type jsonlSpan struct {
	T      string `json:"t"` // "span"
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Region string `json:"region,omitempty"`
	Start  int    `json:"start"`
	End    *int   `json:"end,omitempty"` // omitted while open
}

// jsonlEvent is the JSONL wire form of an Event.
type jsonlEvent struct {
	T       string    `json:"t"` // "event"
	Seq     uint64    `json:"seq"`
	Slot    int       `json:"slot"`
	Kind    string    `json:"kind"`
	Span    uint64    `json:"span,omitempty"`
	Region  string    `json:"region,omitempty"`
	Job     string    `json:"job,omitempty"`
	Subject string    `json:"subject,omitempty"`
	Cause   string    `json:"cause,omitempty"`
	Value   float64   `json:"value,omitempty"`
	Vec     []float64 `json:"vec,omitempty"`
}

// WriteJSONL writes the trace as JSON Lines: first every span in ID
// order, then every event in Seq order — a
// stable sort that makes two exports of the same seeded run
// byte-identical. A nil recorder writes nothing.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, sp := range r.Spans() {
		line := jsonlSpan{T: "span", ID: uint64(sp.ID), Parent: uint64(sp.Parent),
			Name: sp.Name, Job: sp.Job, Region: sp.Region, Start: sp.StartSlot}
		if !sp.Open() {
			end := sp.EndSlot
			line.End = &end
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	for _, ev := range r.Events() {
		line := jsonlEvent{T: "event", Seq: ev.Seq, Slot: ev.Slot,
			Kind: ev.Kind.String(), Span: uint64(ev.Span), Region: ev.Region,
			Job: ev.Job, Subject: ev.Subject, Cause: ev.Cause, Value: ev.Value}
		if len(ev.Vec) > 0 {
			line.Vec = ev.Vec
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// Chrome trace-event format (the JSON object form understood by
// chrome://tracing and Perfetto). Slots map to microseconds: 1 slot =
// 1 µs of viewer time, so the timeline ruler reads directly in slots.
type chromeDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    *int           `json:"ts,omitempty"`
	Dur   *int           `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func intp(v int) *int { return &v }

// WriteChromeTrace writes the trace in Chrome trace-event JSON:
// spans become complete ("X") slices and events instant ("i") marks,
// grouped into one viewer thread per region (thread 0 holds
// region-less activity). Load the file in Perfetto or
// chrome://tracing; the time axis is in slots (1 slot = 1 µs). A nil
// recorder writes an empty but valid document.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans, events := r.Spans(), r.Events()

	// One viewer thread per region, in sorted-name order so tid
	// assignment is deterministic.
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.Region] = true
	}
	for _, ev := range events {
		seen[ev.Region] = true
	}
	regions := make([]string, 0, len(seen))
	for name := range seen {
		if name != "" {
			regions = append(regions, name)
		}
	}
	sort.Strings(regions)
	tids := map[string]int{"": 0}
	for i, name := range regions {
		tids[name] = i + 1
	}

	doc := chromeDoc{DisplayTimeUnit: "ms",
		TraceEvents: make([]chromeEvent, 0, len(spans)+len(events)+len(tids))}
	if seen[""] || len(regions) == 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: 0,
			Args: map[string]any{"name": "global"}})
	}
	for _, name := range regions {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tids[name],
			Args: map[string]any{"name": name}})
	}

	lastSlot := 0
	for _, ev := range events {
		if ev.Slot > lastSlot {
			lastSlot = ev.Slot
		}
	}
	for _, sp := range spans {
		end := sp.EndSlot
		if sp.Open() {
			end = lastSlot // clamp still-open spans to the trace edge
		}
		dur := end - sp.StartSlot
		if dur < 1 {
			dur = 1 // zero-width slices are invisible in the viewer
		}
		args := map[string]any{"span": uint64(sp.ID)}
		if sp.Parent != 0 {
			args["parent"] = uint64(sp.Parent)
		}
		if sp.Job != "" {
			args["job"] = sp.Job
		}
		if sp.Open() {
			args["open"] = true
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name, Phase: "X", PID: 1, TID: tids[sp.Region],
			TS: intp(sp.StartSlot), Dur: intp(dur), Args: args})
	}
	for _, ev := range events {
		args := map[string]any{"seq": ev.Seq}
		if ev.Span != 0 {
			args["span"] = uint64(ev.Span)
		}
		if ev.Job != "" {
			args["job"] = ev.Job
		}
		if ev.Subject != "" {
			args["subject"] = ev.Subject
		}
		if ev.Cause != "" {
			args["cause"] = ev.Cause
		}
		if ev.Value != 0 {
			args["value"] = ev.Value
		}
		if len(ev.Vec) > 0 {
			args["vec"] = append([]float64(nil), ev.Vec...)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: ev.Kind.String(), Phase: "i", PID: 1, TID: tids[ev.Region],
			TS: intp(ev.Slot), Scope: "t", Args: args})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteTimeline renders a plain-text per-slot timeline: one line per
// event in causal (Seq) order, slot-stamped and span-indented so a
// terminal reader can follow a job's lifecycle without a trace
// viewer. A nil recorder writes nothing.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans, events := r.Spans(), r.Events()
	depth := make(map[SpanID]int, len(spans))
	name := make(map[SpanID]string, len(spans))
	for _, sp := range spans { // parents precede children in ID order
		if sp.Parent != 0 {
			depth[sp.ID] = depth[sp.Parent] + 1
		}
		name[sp.ID] = sp.Name
	}
	for _, ev := range events {
		indent := strings.Repeat("  ", depth[ev.Span])
		detail := make([]string, 0, 4)
		if ev.Region != "" {
			detail = append(detail, ev.Region)
		}
		if ev.Subject != "" {
			detail = append(detail, ev.Subject)
		}
		if ev.Value != 0 {
			detail = append(detail, fmt.Sprintf("%g", ev.Value))
		}
		if ev.Cause != "" {
			detail = append(detail, "("+ev.Cause+")")
		}
		where := ""
		if n := name[ev.Span]; n != "" {
			where = " [" + n + "]"
		}
		if _, err := fmt.Fprintf(w, "slot %06d %s%-18s %s%s\n",
			ev.Slot, indent, ev.Kind, strings.Join(detail, " "), where); err != nil {
			return err
		}
	}
	return nil
}
