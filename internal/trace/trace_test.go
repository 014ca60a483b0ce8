package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/instances"
	"repro/internal/timeslot"
)

func mkTrace(t *testing.T, prices []float64) *Trace {
	t.Helper()
	tr, err := New(instances.R3XLarge, timeslot.NewGrid(timeslot.DefaultSlot), prices)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	if _, err := New(instances.R3XLarge, grid, nil); err == nil {
		t.Error("empty prices accepted")
	}
	if _, err := New(instances.R3XLarge, grid, []float64{-1}); err == nil {
		t.Error("negative price accepted")
	}
	if _, err := New(instances.R3XLarge, grid, []float64{math.NaN()}); err == nil {
		t.Error("NaN price accepted")
	}
	if _, err := New(instances.R3XLarge, timeslot.Grid{}, []float64{1}); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestBasicAccessors(t *testing.T) {
	tr := mkTrace(t, []float64{0.03, 0.05, 0.02, 0.04})
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := float64(tr.Duration()); math.Abs(got-4.0/12.0) > 1e-12 {
		t.Errorf("Duration = %v", got)
	}
	if tr.At(2) != 0.02 {
		t.Errorf("At(2) = %v", tr.At(2))
	}
	if tr.Min() != 0.02 || tr.Max() != 0.05 {
		t.Errorf("Min/Max = %v/%v", tr.Min(), tr.Max())
	}
	if got := tr.Mean(); math.Abs(got-0.035) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if !tr.TimeOf(1).Equal(timeslot.Epoch.Add(5 * 60 * 1e9)) {
		t.Errorf("TimeOf(1) = %v", tr.TimeOf(1))
	}
}

func TestWindow(t *testing.T) {
	tr := mkTrace(t, []float64{1, 2, 3, 4, 5})
	w, err := tr.Window(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 || w.At(0) != 2 || w.At(2) != 4 {
		t.Errorf("window = %v", w.Prices)
	}
	// The window's grid starts at the first included slot.
	if !w.Grid.Start.Equal(tr.TimeOf(1)) {
		t.Error("window grid start wrong")
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 6}, {3, 3}, {4, 2}} {
		if _, err := tr.Window(bad[0], bad[1]); err == nil {
			t.Errorf("window %v accepted", bad)
		}
	}
}

func TestLastHours(t *testing.T) {
	prices := make([]float64, 36) // 3 hours of slots
	for i := range prices {
		prices[i] = float64(i)
	}
	tr := mkTrace(t, prices)
	w, err := tr.LastHours(1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 12 || w.At(0) != 24 {
		t.Errorf("LastHours(1): len=%d first=%v", w.Len(), w.At(0))
	}
	// Longer than the trace, past an int's worth of slots too: whole
	// trace.
	for _, h := range []float64{100, 1e300, math.Inf(1)} {
		w, err = tr.LastHours(timeslot.Hours(h))
		if err != nil {
			t.Fatalf("LastHours(%v): %v", h, err)
		}
		if w.Len() != 36 {
			t.Errorf("LastHours(%v) len = %d", h, w.Len())
		}
	}
}

func TestECDF(t *testing.T) {
	tr := mkTrace(t, []float64{0.03, 0.05, 0.02, 0.04})
	e, err := tr.ECDF(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CDF(0.035); got != 0.5 {
		t.Errorf("ECDF(0.035) = %v", got)
	}
}

func TestDayNight(t *testing.T) {
	// 24h of slots starting at midnight: 96 night (00–08), 144 day
	// (08–20), 48 night (20–24).
	prices := make([]float64, 288)
	for i := range prices {
		prices[i] = 0.03
	}
	tr := mkTrace(t, prices)
	day, night := tr.DayNight()
	if len(day) != 144 || len(night) != 144 {
		t.Errorf("day/night split = %d/%d", len(day), len(night))
	}
}

func TestBestOfflinePrice(t *testing.T) {
	// Windows of 2 slots; maxima are 5,4,6,6 for prices 5,4,2,6,1 →
	// wait: windows [5,4]=5 [4,2]=4 [2,6]=6 [6,1]=6 → best 4.
	tr := mkTrace(t, []float64{5, 4, 2, 6, 1})
	got, err := tr.BestOfflinePrice(timeslot.Hours(2.0 / 12.0))
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("BestOfflinePrice = %v, want 4", got)
	}
	// Single-slot run: global minimum.
	got, err = tr.BestOfflinePrice(timeslot.DefaultSlot)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("single-slot best = %v, want 1", got)
	}
	// Whole-trace run: global maximum.
	got, err = tr.BestOfflinePrice(tr.Duration())
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("whole-trace best = %v, want 6", got)
	}
	if _, err := tr.BestOfflinePrice(timeslot.Hours(10)); err == nil {
		t.Error("run longer than trace accepted")
	}
	if _, err := tr.BestOfflinePrice(0); err == nil {
		t.Error("zero run accepted")
	}
}

// TestBestOfflinePriceBruteForce cross-checks the deque implementation
// against an O(n·w) brute force on random traces.
func TestBestOfflinePriceBruteForce(t *testing.T) {
	f := func(raw []uint8, width uint8) bool {
		if len(raw) < 2 {
			return true
		}
		prices := make([]float64, len(raw))
		for i, v := range raw {
			prices[i] = float64(v)
		}
		n := int(width)%len(prices) + 1
		tr := mkTrace(t, prices)
		got, err := tr.BestOfflinePrice(tr.Grid.HoursOfSlots(n))
		if err != nil {
			return false
		}
		want := math.Inf(1)
		for i := 0; i+n <= len(prices); i++ {
			m := 0.0
			for _, p := range prices[i : i+n] {
				if p > m {
					m = p
				}
			}
			if m < want {
				want = m
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	tr := mkTrace(t, []float64{1, 2, 3})
	cl := tr.Clone()
	cl.Prices[0] = 99
	if tr.Prices[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := mkTrace(t, []float64{0.0301, 0.0305, 0.0323, 0.0301})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != tr.Type || back.Len() != tr.Len() {
		t.Fatalf("round trip lost shape: %v %d", back.Type, back.Len())
	}
	for i := range tr.Prices {
		if back.Prices[i] != tr.Prices[i] {
			t.Errorf("price %d: %v != %v", i, back.Prices[i], tr.Prices[i])
		}
	}
	if back.Grid.Slot != tr.Grid.Slot {
		t.Errorf("slot length %v != %v", float64(back.Grid.Slot), float64(tr.Grid.Slot))
	}
	if !back.Grid.Start.Equal(tr.Grid.Start) {
		t.Error("start time mismatch")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"header only":  "Timestamp,InstanceType,ProductDescription,SpotPrice\n",
		"bad header":   "a,b,c,d\n2014-08-14T00:00:00Z,r3.xlarge,Linux/UNIX,0.03\n",
		"bad time":     "Timestamp,InstanceType,ProductDescription,SpotPrice\nnot-a-time,r3.xlarge,Linux/UNIX,0.03\n2014-08-14T00:05:00Z,r3.xlarge,Linux/UNIX,0.03\n",
		"bad price":    "Timestamp,InstanceType,ProductDescription,SpotPrice\n2014-08-14T00:00:00Z,r3.xlarge,Linux/UNIX,xx\n2014-08-14T00:05:00Z,r3.xlarge,Linux/UNIX,0.03\n",
		"mixed types":  "Timestamp,InstanceType,ProductDescription,SpotPrice\n2014-08-14T00:00:00Z,r3.xlarge,Linux/UNIX,0.03\n2014-08-14T00:05:00Z,c3.xlarge,Linux/UNIX,0.03\n",
		"ragged grid":  "Timestamp,InstanceType,ProductDescription,SpotPrice\n2014-08-14T00:00:00Z,r3.xlarge,Linux/UNIX,0.03\n2014-08-14T00:05:00Z,r3.xlarge,Linux/UNIX,0.03\n2014-08-14T00:17:00Z,r3.xlarge,Linux/UNIX,0.03\n",
		"wrong fields": "Timestamp,InstanceType,ProductDescription,SpotPrice\n2014-08-14T00:00:00Z,r3.xlarge,0.03\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr, err := Generate(instances.R3XLarge, GenOptions{Days: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Type != instances.R3XLarge || s.OnDemand != 0.35 {
		t.Errorf("identity: %+v", s)
	}
	if s.Slots != 7*288 || math.Abs(s.Hours-7*24) > 1e-9 {
		t.Errorf("span: %d slots, %v hours", s.Slots, s.Hours)
	}
	if !(s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("percentiles out of order: %+v", s)
	}
	if s.MeanOverOnDemand < 0.05 || s.MeanOverOnDemand > 0.2 {
		t.Errorf("discount ratio %v", s.MeanOverOnDemand)
	}
	if s.Autocorr1 < 0.5 {
		t.Errorf("sticky trace lag-1 autocorr %v", s.Autocorr1)
	}
	for _, want := range []string{"instance type", "p50/p90/p95/p99", "autocorr"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String missing %q", want)
		}
	}
	// An uncataloged type cannot be summarized.
	bad := &Trace{Type: "bogus", Grid: tr.Grid, Prices: tr.Prices}
	if _, err := bad.Summarize(); err == nil {
		t.Error("unknown type accepted")
	}
}
