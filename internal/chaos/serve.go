package chaos

// Serving-layer fault schedules. The control plane (internal/serve)
// defines a Faults interface — feed stalls, build failures, swap
// latency spikes, client clock skew, price spikes — and ServeInjector
// implements it structurally from an explicit incident list, the same
// RNG-free idiom as ScheduleInjector: the same schedule delivers the
// same faults on every run, and a schedule prints as a
// copy-pasteable Go literal. chaos does not import serve (serve is a
// consumer of chaos's vocabulary, not the other way around).

import (
	"fmt"
	"strings"
	"sync"
)

// ServeFaultKind is the vocabulary of schedulable serving faults.
type ServeFaultKind int

const (
	// ServeFeedStall: the spot-price feed delivers nothing during the
	// window; table data ages and the staleness ladder degrades.
	ServeFeedStall ServeFaultKind = iota
	// ServeBuildFail: quote-table builds attempted during the window
	// fail; the watchdog counts consecutive failures.
	ServeBuildFail
	// ServeBuildDelay: builds started during the window finish but
	// their swap lands ServeBuildDelayLag slots late.
	ServeBuildDelay
	// ServeClockSkew: request deadlines issued during the window are
	// skewed by ServeClockSkewMicros (positive skew shortens the
	// effective budget — the client's clock runs behind the server's).
	ServeClockSkew
	// ServePriceSpike: fed prices during the window are multiplied by
	// ServePriceSpikeFactor, pushing mass above the on-demand ceiling
	// so Eq. 14 infeasibility actually occurs.
	ServePriceSpike

	numServeFaultKinds
)

var serveFaultKindNames = [numServeFaultKinds]string{
	ServeFeedStall:  "feed-stall",
	ServeBuildFail:  "build-fail",
	ServeBuildDelay: "build-delay",
	ServeClockSkew:  "clock-skew",
	ServePriceSpike: "price-spike",
}

var serveFaultKindGoNames = [numServeFaultKinds]string{
	ServeFeedStall:  "ServeFeedStall",
	ServeBuildFail:  "ServeBuildFail",
	ServeBuildDelay: "ServeBuildDelay",
	ServeClockSkew:  "ServeClockSkew",
	ServePriceSpike: "ServePriceSpike",
}

// String implements fmt.Stringer.
func (k ServeFaultKind) String() string {
	if k >= 0 && int(k) < len(serveFaultKindNames) {
		return serveFaultKindNames[k]
	}
	return fmt.Sprintf("ServeFaultKind(%d)", int(k))
}

// GoName returns the kind's Go identifier, for reproducer literals.
func (k ServeFaultKind) GoName() string {
	if k >= 0 && int(k) < len(serveFaultKindGoNames) {
		return "chaos." + serveFaultKindGoNames[k]
	}
	return fmt.Sprintf("chaos.ServeFaultKind(%d)", int(k))
}

// Scheduled serving-fault tuning, fixed so a ServeFaultAt stays the
// three-field tuple an explorer can enumerate and shrink over.
const (
	// ServeBuildDelayLag is how many slots a ServeBuildDelay swap
	// lands late.
	ServeBuildDelayLag = 8
	// ServeClockSkewMicros is the deadline skew a ServeClockSkew
	// episode applies (2 s — larger than any sane request budget).
	ServeClockSkewMicros = int64(2_000_000)
	// ServePriceSpikeFactor multiplies fed prices during a
	// ServePriceSpike episode (×20 lifts typical spot prices above
	// every on-demand ceiling in the catalog).
	ServePriceSpikeFactor = 20.0
)

// ServeFaultAt schedules one serving-fault episode active over the
// slot window [Slot, Slot+Slots).
type ServeFaultAt struct {
	// Slot is the first slot of the episode.
	Slot int
	// Kind is the fault type.
	Kind ServeFaultKind
	// Slots is the episode length (default 1).
	Slots int
}

// window reports the defaulted [start, end) slot window.
func (f ServeFaultAt) window() (int, int) {
	n := f.Slots
	if n <= 0 {
		n = 1
	}
	return f.Slot, f.Slot + n
}

// covers reports whether the episode is active at slot.
func (f ServeFaultAt) covers(slot int) bool {
	lo, hi := f.window()
	return slot >= lo && slot < hi
}

// Validate reports whether the fault is well formed.
func (f ServeFaultAt) Validate() error {
	if f.Slot < 0 {
		return &ConfigError{Field: "ServeFaultAt.Slot", Value: float64(f.Slot), Reason: "negative slot"}
	}
	if f.Slots < 0 {
		return &ConfigError{Field: "ServeFaultAt.Slots", Value: float64(f.Slots), Reason: "negative duration"}
	}
	if f.Kind < 0 || f.Kind >= numServeFaultKinds {
		return &ConfigError{Field: "ServeFaultAt.Kind", Value: float64(f.Kind), Reason: "unknown fault kind"}
	}
	return nil
}

// ServeSchedule is an explicit serving-fault incident list.
type ServeSchedule []ServeFaultAt

// Validate reports whether every fault is well formed.
func (s ServeSchedule) Validate() error {
	for i, f := range s {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("serve schedule fault %d: %w", i, err)
		}
	}
	return nil
}

// Horizon reports the first slot past every episode (0 when empty).
func (s ServeSchedule) Horizon() int {
	h := 0
	for _, f := range s {
		if _, end := f.window(); end > h {
			h = end
		}
	}
	return h
}

// Clone returns an independent copy.
func (s ServeSchedule) Clone() ServeSchedule {
	if s == nil {
		return nil
	}
	out := make(ServeSchedule, len(s))
	copy(out, s)
	return out
}

// GoString renders the schedule as a copy-pasteable Go literal.
func (s ServeSchedule) GoString() string {
	if len(s) == 0 {
		return "chaos.ServeSchedule{}"
	}
	var b strings.Builder
	b.WriteString("chaos.ServeSchedule{\n")
	for _, f := range s {
		fmt.Fprintf(&b, "\t{Slot: %d, Kind: %s", f.Slot, f.Kind.GoName())
		if f.Slots > 1 {
			fmt.Fprintf(&b, ", Slots: %d", f.Slots)
		}
		b.WriteString("},\n")
	}
	b.WriteString("}")
	return b.String()
}

// DrillSchedule is the canonical serving-fault timeline that serve's
// e2e drill and the serve drill experiment run: a feed stall long
// enough to walk the ladder down to refuse, build failures that hold
// recovery back (and trip the watchdog), skewed client clocks, a
// delayed swap, and a price spike that poisons the window until Eq. 14
// genuinely fails. The drill adds a request burst at slot 210, which
// is not a fault but serve.DrillConfig.BurstSlot:
//
//	slots 60–139   feed stall        → fresh → stale → refuse
//	slots 144–167  build failures    → recovery held back, watchdog trips
//	slot  200–203  client clock skew → deadline sheds
//	slot  210      request burst     → capacity sheds (DrillConfig)
//	slot  240      delayed swap      → lands at 248, versions stay monotone
//	slots 260–419  price spike ×20   → Eq. 14 infeasibility refused
var DrillSchedule = ServeSchedule{
	{Slot: 60, Kind: ServeFeedStall, Slots: 80},
	{Slot: 144, Kind: ServeBuildFail, Slots: 24},
	{Slot: 200, Kind: ServeClockSkew, Slots: 4},
	{Slot: 240, Kind: ServeBuildDelay, Slots: 1},
	{Slot: 260, Kind: ServePriceSpike, Slots: 160},
}

// ServeStats counts delivered serving faults, by kind of consultation
// that hit an active episode.
type ServeStats struct {
	StalledSlots  int
	FailedBuilds  int
	DelayedBuilds int
	SkewedSlots   int
	SpikedSlots   int
}

// ServeInjector implements serve.Faults (structurally — chaos does
// not import serve) from an explicit ServeSchedule. It draws no
// randomness and is safe for concurrent use: the quote path consults
// DeadlineSkewMicros while the feed and builder consult the rest.
type ServeInjector struct {
	mu     sync.Mutex
	faults ServeSchedule
	stats  ServeStats
}

// NewServeSchedule builds an injector delivering exactly the given
// faults. The schedule is validated (typed *ConfigError) and copied.
func NewServeSchedule(faults ServeSchedule) (*ServeInjector, error) {
	if err := faults.Validate(); err != nil {
		return nil, err
	}
	return &ServeInjector{faults: faults.Clone()}, nil
}

// Schedule returns a copy of the injector's fault list.
func (in *ServeInjector) Schedule() ServeSchedule {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults.Clone()
}

// Stats returns a snapshot of the faults delivered so far.
func (in *ServeInjector) Stats() ServeStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// active reports whether any episode of the kind covers slot,
// bumping the given counter on a hit.
func (in *ServeInjector) active(kind ServeFaultKind, slot int, count *int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.faults {
		if f.Kind == kind && f.covers(slot) {
			if count != nil {
				*count++
			}
			return true
		}
	}
	return false
}

// FeedStalled implements serve.Faults.
func (in *ServeInjector) FeedStalled(slot int) bool {
	return in.active(ServeFeedStall, slot, &in.stats.StalledSlots)
}

// BuildFails implements serve.Faults.
func (in *ServeInjector) BuildFails(slot int) bool {
	return in.active(ServeBuildFail, slot, &in.stats.FailedBuilds)
}

// BuildDelaySlots implements serve.Faults.
func (in *ServeInjector) BuildDelaySlots(slot int) int {
	if in.active(ServeBuildDelay, slot, &in.stats.DelayedBuilds) {
		return ServeBuildDelayLag
	}
	return 0
}

// DeadlineSkewMicros implements serve.Faults.
func (in *ServeInjector) DeadlineSkewMicros(slot int) int64 {
	if in.active(ServeClockSkew, slot, &in.stats.SkewedSlots) {
		return ServeClockSkewMicros
	}
	return 0
}

// SpikeFactor implements serve.Faults.
func (in *ServeInjector) SpikeFactor(slot int) float64 {
	if in.active(ServePriceSpike, slot, &in.stats.SpikedSlots) {
		return ServePriceSpikeFactor
	}
	return 1
}
