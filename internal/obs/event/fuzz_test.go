package event

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FuzzRecorderMatchesEmit: a recorder that stores each EmitSeries call
// as the series reads back exactly what one Emit per change records.
// The input decodes into a sequence of Emit, EmitSeries (short series
// over a few values, so repeats are common), BeginSpan, EndSpan and
// Reset calls, applied to one recorder and to a reference that records
// each series with emitEach. After every call the events, spans and
// length must match; the exports, which read only those, must match
// byte for byte before every Reset and at the end.
func FuzzRecorderMatchesEmit(f *testing.F) {
	// A span, an emit right before a series with repeats, a vec emit, a
	// child span whose series has an explicit span and ±0, an end, a
	// cause emit and a series, then a reset and a series of NaNs.
	f.Add([]byte{
		2, 3, 1, 0,
		0, 1, 0, 1, 0, 0, 0,
		1, 6, 0, 0, 0, 0, 0, 6, 0, 0, 1, 1, 0, 2,
		0, 2, 1, 1, 2, 1, 1,
		2, 0, 2, 1,
		1, 6, 0, 2, 3, 0, 6, 5, 3, 4, 4, 2, 2,
		3, 2, 1,
		0, 3, 0, 1, 0, 2, 3,
		1, 6, 0, 0, 0, 0, 0, 3, 0, 1, 0,
		4,
		0, 7, 0, 0, 0, 0, 0,
		1, 6, 0, 0, 0, 0, 0, 8, 5, 5, 0, 0, 1, 5, 1, 1,
		3, 5, 0,
	})
	// Series and resets back to back, an empty series, spans across a
	// reset.
	f.Add([]byte{1, 6, 0, 0, 0, 0, 0, 2, 0, 1, 2, 0, 1, 0, 4, 1, 6, 0, 0, 0, 0, 0, 0,
		0, 1, 0, 0, 0, 0, 0, 1, 6, 1, 3, 3, 1, 0, 4, 2, 1, 2, 3, 1, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		got, ref := NewRecorder(), NewRecorder()
		slot := 0
		for step := 0; len(data) > 0; step++ {
			switch op := next() % 5; op {
			case 0:
				ev := fuzzEvent(next, slot)
				got.Emit(&ev)
				ref.Emit(&ev)
			case 1:
				tmpl := fuzzEvent(next, slot)
				values := make([]float64, next()%9)
				for i := range values {
					values[i] = fuzzValues[next()%len(fuzzValues)]
				}
				got.EmitSeries(tmpl, values)
				emitEach(ref, tmpl, values)
			case 2:
				name, region := fuzzNames[next()%len(fuzzNames)], fuzzNames[next()%len(fuzzNames)]
				slot += next() % 4
				if a, b := got.BeginSpan(name, "j", region, slot), ref.BeginSpan(name, "j", region, slot); a != b {
					t.Fatalf("step %d: BeginSpan %d, reference %d", step, a, b)
				}
			case 3:
				id := SpanID(next() % (len(ref.Spans()) + 2))
				slot += next() % 4
				got.EndSpan(id, slot)
				ref.EndSpan(id, slot)
			case 4:
				sameExports(t, step, got, ref)
				got.Reset()
				ref.Reset()
			}
			sameRecording(t, step, got, ref)
		}
		sameExports(t, -1, got, ref)
	})
}

var (
	fuzzValues = []float64{0.03, 0.05, 0.35, 0, math.Copysign(0, -1), math.NaN()}
	fuzzNames  = []string{"", "home", "away", "job:j"}
)

// fuzzEvent decodes one event: any kind, a few regions, subjects and
// causes, a value from fuzzValues, now and then a Vec or an explicit
// (possibly unknown) span.
func fuzzEvent(next func() int, slot int) Event {
	ev := Event{
		Kind:    Kind(next() % int(numKinds)),
		Slot:    slot + next()%3,
		Region:  fuzzNames[next()%len(fuzzNames)],
		Subject: fuzzNames[next()%len(fuzzNames)],
		Value:   fuzzValues[next()%len(fuzzValues)],
	}
	switch flags := next(); {
	case flags%4 == 1:
		ev.Vec = []float64{ev.Value, 1}
	case flags%4 == 2:
		ev.Span = SpanID(flags / 4 % 4)
	case flags%4 == 3:
		ev.Cause = "outage"
	}
	return ev
}

// sameRecording fails unless got and ref hold the same recording:
// events (compared by their exact printed form, so NaN and -0 count)
// numbered 0, 1, 2, ... in Seq order, spans, and current span.
func sameRecording(t *testing.T, step int, got, ref *Recorder) {
	t.Helper()
	evs := got.Events()
	if a, b := fmt.Sprintf("%+v", evs), fmt.Sprintf("%+v", ref.Events()); a != b {
		t.Fatalf("step %d: events\n%s\nreference\n%s", step, a, b)
	}
	if got.Len() != ref.Len() || got.Len() != len(evs) {
		t.Fatalf("step %d: Len %d, reference %d, %d events", step, got.Len(), ref.Len(), len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("step %d: event %d has Seq %d", step, i, ev.Seq)
		}
	}
	if !reflect.DeepEqual(got.Spans(), ref.Spans()) || got.Current() != ref.Current() {
		t.Fatalf("step %d: spans %+v (current %d), reference %+v (current %d)",
			step, got.Spans(), got.Current(), ref.Spans(), ref.Current())
	}
}

// sameExports fails unless every export of got and ref writes the same
// bytes and returns the same error.
func sameExports(t *testing.T, step int, got, ref *Recorder) {
	t.Helper()
	for _, format := range []string{"jsonl", "chrome", "timeline"} {
		export, err := Exporter(format)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		errA, errB := export(got, &a), export(ref, &b)
		if fmt.Sprint(errA) != fmt.Sprint(errB) || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("step %d: %s export differs (err %v, reference %v)\n%s\nreference\n%s",
				step, format, errA, errB, a.Bytes(), b.Bytes())
		}
	}
}
