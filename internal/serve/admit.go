package serve

import (
	"fmt"
	"sync"
)

// Class is a request priority class. Lower values are more important:
// under overload, batch sheds first, interactive last.
type Class uint8

const (
	// ClassInteractive: a human is waiting (dashboards, consoles).
	ClassInteractive Class = iota
	// ClassStandard: ordinary automated clients. The default.
	ClassStandard
	// ClassBatch: bulk re-planners and sweeps; first to shed.
	ClassBatch
	// NumClasses bounds the class enum.
	NumClasses
)

var classNames = [...]string{"interactive", "standard", "batch"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass maps a wire name onto a Class; the empty string selects
// ClassStandard.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "standard":
		return ClassStandard, nil
	case "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	default:
		return ClassStandard, fmt.Errorf("serve: unknown priority class %q", s)
	}
}

// AdmitConfig tunes the admission controller. Rates and bursts are
// per class; zero selects the default.
type AdmitConfig struct {
	// RatePerSec is each class's sustained token refill rate in
	// requests per second (default 2000/1000/500 for
	// interactive/standard/batch).
	RatePerSec [NumClasses]float64
	// Burst is each class's bucket capacity (default 200/400/800).
	Burst [NumClasses]float64
}

// MinServiceMicros is the floor cost of answering a quote; a request
// whose deadline budget is below it can never be met and is shed
// immediately rather than queued to die.
const MinServiceMicros = 50

// withDefaults applies defaults and validates.
func (c AdmitConfig) withDefaults() (AdmitConfig, error) {
	defRate := [NumClasses]float64{2000, 1000, 500}
	defBurst := [NumClasses]float64{200, 400, 800}
	for i := range c.RatePerSec {
		if c.RatePerSec[i] == 0 {
			c.RatePerSec[i] = defRate[i]
		}
		if c.Burst[i] == 0 {
			c.Burst[i] = defBurst[i]
		}
		if c.RatePerSec[i] < 0 || c.Burst[i] < 1 {
			return c, fmt.Errorf("serve: admission class %s needs rate ≥ 0 and burst ≥ 1, got %v/%v",
				Class(i), c.RatePerSec[i], c.Burst[i])
		}
	}
	return c, nil
}

// Verdict is an admission decision.
type Verdict uint8

const (
	// Admitted: a token was spent; the request proceeds.
	Admitted Verdict = iota
	// ShedCapacity: every borrowable bucket is empty.
	ShedCapacity
	// ShedDeadline: the deadline cannot be met; no token was spent.
	ShedDeadline
)

// Admitter is the token-bucket admission controller. Buckets refill
// in *logical* microseconds — whatever clock the caller stamps
// requests with — so the drill is deterministic and spotbidd just
// passes wall-clock micros. A class with an empty bucket may borrow
// from any lower-priority class's bucket (interactive ← standard ←
// batch), so under sustained overload batch capacity is consumed by
// its betters and batch sheds first.
type Admitter struct {
	cfg AdmitConfig

	mu      sync.Mutex
	tokens  [NumClasses]float64
	lastRef int64 // micros of the last refill
	started bool
}

// NewAdmitter builds an admission controller with full buckets.
func NewAdmitter(cfg AdmitConfig) *Admitter {
	a := &Admitter{cfg: cfg}
	a.tokens = cfg.Burst
	return a
}

// Admit decides one request: first the deadline test (a budget below
// MinServiceMicros is unmeetable — shed without spending a token),
// then the token buckets. nowMicros must be non-decreasing per
// Admitter for the refill to behave; a backwards clock simply skips
// refilling (never drains).
func (a *Admitter) Admit(class Class, nowMicros, deadlineMicros int64) Verdict {
	if class >= NumClasses {
		class = ClassBatch
	}
	if deadlineMicros-nowMicros < MinServiceMicros {
		return ShedDeadline
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.started {
		a.started, a.lastRef = true, nowMicros
	}
	if dt := nowMicros - a.lastRef; dt > 0 {
		for i := range a.tokens {
			a.tokens[i] += a.cfg.RatePerSec[i] * float64(dt) / 1e6
			if a.tokens[i] > a.cfg.Burst[i] {
				a.tokens[i] = a.cfg.Burst[i]
			}
		}
		a.lastRef = nowMicros
	}
	// Own bucket first, then borrow downward in priority.
	for c := class; c < NumClasses; c++ {
		if a.tokens[c] >= 1 {
			a.tokens[c]--
			return Admitted
		}
	}
	return ShedCapacity
}

// Tokens returns the current bucket levels (for tests and /readyz).
func (a *Admitter) Tokens() [NumClasses]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tokens
}
