package timeslot

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestHoursConversions(t *testing.T) {
	if got := Seconds(3600); got != 1 {
		t.Errorf("Seconds(3600) = %v, want 1", float64(got))
	}
	if got := Seconds(30).Seconds(); math.Abs(got-30) > 1e-12 {
		t.Errorf("Seconds(30).Seconds() = %v, want 30", got)
	}
	if got := HoursOf(90 * time.Minute); got != 1.5 {
		t.Errorf("HoursOf(90m) = %v, want 1.5", float64(got))
	}
	if got := Hours(2).Duration(); got != 2*time.Hour {
		t.Errorf("Hours(2).Duration() = %v, want 2h", got)
	}
}

func TestHoursString(t *testing.T) {
	cases := []struct {
		in   Hours
		want string
	}{
		{Hours(1), "1h"},
		{Hours(2), "2h"},
		{Seconds(30), "30s"},
		{Seconds(10), "10s"},
		{Hours(5.0 / 60.0), "5m"},
		{Seconds(90), "90s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Hours(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestDefaultSlot(t *testing.T) {
	g := NewGrid(DefaultSlot)
	if got := g.SlotsPerHour(); math.Abs(got-12) > 1e-12 {
		t.Errorf("SlotsPerHour = %v, want 12", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGridValidate(t *testing.T) {
	for _, slot := range []Hours{0, -1} {
		if err := (Grid{Slot: slot}).Validate(); err == nil {
			t.Errorf("Validate accepted slot %v", float64(slot))
		}
	}
}

func TestGridTimeIndexRoundTrip(t *testing.T) {
	g := NewGrid(DefaultSlot)
	for _, i := range []int{0, 1, 11, 12, 100, 17568} { // 17568 slots = 61 days
		if got := g.Index(g.Time(i)); got != i {
			t.Errorf("Index(Time(%d)) = %d", i, got)
		}
	}
	// Mid-slot times map to the containing slot.
	mid := g.Time(3).Add(2 * time.Minute)
	if got := g.Index(mid); got != 3 {
		t.Errorf("Index(mid slot 3) = %d", got)
	}
	// Times before the epoch map to negative indices.
	if got := g.Index(g.Start.Add(-time.Minute)); got != -1 {
		t.Errorf("Index(epoch−1m) = %d, want -1", got)
	}
}

func TestGridSlots(t *testing.T) {
	g := NewGrid(DefaultSlot)
	if got := g.Slots(Hours(1)); math.Abs(got-12) > 1e-12 {
		t.Errorf("Slots(1h) = %v, want 12", got)
	}
	if got := g.CeilSlots(Hours(1)); got != 12 {
		t.Errorf("CeilSlots(1h) = %d, want 12", got)
	}
	if got := g.CeilSlots(Seconds(301)); got != 2 {
		t.Errorf("CeilSlots(301s) = %d, want 2", got)
	}
	if got := g.CeilSlots(Seconds(300)); got != 1 {
		t.Errorf("CeilSlots(300s) = %d, want 1", got)
	}
	if got := g.HoursOfSlots(24); math.Abs(float64(got)-2) > 1e-12 {
		t.Errorf("HoursOfSlots(24) = %v, want 2", float64(got))
	}
}

func TestCeilSlotsProperty(t *testing.T) {
	g := NewGrid(DefaultSlot)
	f := func(raw uint16) bool {
		h := Hours(float64(raw) / 1000.0) // 0 .. ~65.5 hours
		n := g.CeilSlots(h)
		covered := g.HoursOfSlots(n)
		// n slots cover h, n−1 do not.
		if float64(covered) < float64(h)-1e-9 {
			return false
		}
		if n > 0 && float64(g.HoursOfSlots(n-1)) >= float64(h)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCeilSlotsSaturates covers durations whose slot count is near or
// past what an int holds. On a one-hour grid the slot count is the
// duration itself, so the table can name the floats around 2⁶³ exactly.
func TestCeilSlotsSaturates(t *testing.T) {
	two63 := math.Ldexp(1, 63)
	hourly := NewGrid(1)
	for _, c := range []struct {
		h    float64
		want int
	}{
		{0, 0},
		{0.5, 1},
		{1, 1},
		{-0.5, 0},
		{-1.5, -1},
		{math.Nextafter(two63, 0), 1<<63 - 1024},
		{two63, math.MaxInt},
		{math.Nextafter(two63, math.Inf(1)), math.MaxInt},
		{1e300, math.MaxInt},
		{math.Inf(1), math.MaxInt},
		{math.Nextafter(-two63, 0), -1<<63 + 1024},
		{-two63, math.MinInt},
		{-1e300, math.MinInt},
		{math.Inf(-1), math.MinInt},
		{math.NaN(), 0},
	} {
		if got := hourly.CeilSlots(Hours(c.h)); got != c.want {
			t.Errorf("CeilSlots(%v h) on a 1-hour grid = %d, want %d", c.h, got, c.want)
		}
	}
	g := NewGrid(DefaultSlot)
	for _, h := range []float64{1e300, math.Inf(1)} {
		if got := g.CeilSlots(Hours(h)); got != math.MaxInt {
			t.Errorf("CeilSlots(%v h) on the 5-minute grid = %d, want math.MaxInt", h, got)
		}
	}
}

func TestClock(t *testing.T) {
	c := NewClock(NewGrid(DefaultSlot))
	if c.Now() != 0 {
		t.Fatalf("new clock at slot %d", c.Now())
	}
	if got := c.Tick(); got != 1 {
		t.Errorf("Tick = %d, want 1", got)
	}
	for i := 0; i < 11; i++ {
		c.Tick()
	}
	if got := c.ElapsedHours(); math.Abs(float64(got)-1) > 1e-12 {
		t.Errorf("ElapsedHours after 12 ticks = %v, want 1", float64(got))
	}
	if got := c.NowTime(); !got.Equal(Epoch.Add(time.Hour)) {
		t.Errorf("NowTime = %v, want epoch+1h", got)
	}
	if got := c.Grid().Slot; got != DefaultSlot {
		t.Errorf("Grid().Slot = %v", float64(got))
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset left clock at %d", c.Now())
	}
}
