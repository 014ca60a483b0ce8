package invariant

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obs/event"
)

// progressEps absorbs float noise in hours-of-work arithmetic.
const progressEps = 1e-9

// checkpointChecker verifies §3.3's recovery accounting over the
// CheckpointExport / CheckpointImport event stream: durable progress
// is monotone. Remaining work only ever leaves a volume bounded by
// what the job could still owe ("the allowance"), an import never
// carries MORE progress than the last durable export (that state was
// never saved), and never LESS than the export minus the accounted
// migration penalty (progress silently lost in transit).
//
// The allowance starts at the job's full size and is re-derived at
// each event: after an export of remaining v the next leg may owe at
// most v plus the migration penalty plus the recovery time t_r —
// whether or not the import lands (a chaos-failed import emits no
// event but the leg still carries that much work in its spec).
type checkpointChecker struct {
	events []event.Event
	vs     []Violation
}

func newCheckpointChecker() *checkpointChecker { return &checkpointChecker{} }

func (c *checkpointChecker) Name() string            { return "checkpoint-monotonicity" }
func (c *checkpointChecker) Violations() []Violation { return c.vs }

func (c *checkpointChecker) Observe(ev event.Event) {
	if ev.Kind == event.CheckpointExport || ev.Kind == event.CheckpointImport {
		c.events = append(c.events, ev)
	}
}

func (c *checkpointChecker) fail(slot int, detail string, args ...any) {
	// Checkpoint events carry no region; the volume is the scope.
	c.vs = append(c.vs, Violation{Checker: c.Name(), Slot: slot,
		Detail: fmt.Sprintf(detail, args...)})
}

func (c *checkpointChecker) Finish(st *RunState) {
	penalty := float64(fleet.MigrationPenalty)
	recovery := float64(st.Spec.Recovery)
	allowance := float64(st.Spec.Exec)
	lastExport := 0.0
	sawExport := false
	for _, ev := range c.events {
		if ev.Job != st.Spec.ID {
			continue // e.g. the "-escalated" on-demand job
		}
		v := ev.Value // remaining work, in hours
		switch ev.Kind {
		case event.CheckpointExport:
			if v > allowance+progressEps {
				c.fail(ev.Slot, "export of %vh remaining exceeds the %vh the job could still owe",
					v, allowance)
			}
			lastExport = v
			sawExport = true
			allowance = v + penalty + recovery
		case event.CheckpointImport:
			if !sawExport {
				c.fail(ev.Slot, "import of %vh remaining with no prior durable export", v)
			} else {
				if v < lastExport-progressEps {
					c.fail(ev.Slot, "import of %vh remaining carries more progress than the last durable export (%vh)",
						v, lastExport)
				}
				if v > lastExport+penalty+progressEps {
					c.fail(ev.Slot, "import of %vh remaining regressed past the last durable export (%vh) plus the migration penalty (%vh)",
						v, lastExport, penalty)
				}
			}
			allowance = v + recovery
		}
	}
}
