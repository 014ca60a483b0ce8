// Package job runs user jobs against the simulated cloud: it tracks a
// job's progress across spot interruptions (checkpoint, recovery,
// resume — §5's persistent-request semantics), detects one-time
// request failures, and accounts completion time and cost exactly as
// the paper measures them (completion = submission → finish,
// including idle time; cost = the bill for every slot an instance
// ran).
//
// A Tracker is a per-job state machine advanced once per region slot;
// Run is the one slot loop that drives a single job; the workflow
// runner composes several Trackers over one region.
package job

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/retry"
	"repro/internal/timeslot"
)

// Spec describes the job to run.
type Spec struct {
	// ID names the job (checkpoint key). Required.
	ID string
	// Type is the instance type to run on.
	Type instances.Type
	// Exec is t_s, the execution time without interruptions.
	Exec timeslot.Hours
	// Recovery is t_r, the extra running time consumed after each
	// interruption before useful work resumes.
	Recovery timeslot.Hours
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.ID == "" {
		return errors.New("job: empty job ID")
	}
	if !(s.Exec > 0) {
		return fmt.Errorf("job: execution time %v must be positive", float64(s.Exec))
	}
	if s.Recovery < 0 {
		return fmt.Errorf("job: negative recovery time %v", float64(s.Recovery))
	}
	return nil
}

// Status is a job's lifecycle state.
type Status int

const (
	// Pending: submitted, waiting for the first launch.
	Pending Status = iota
	// Running: making progress this slot.
	Running
	// Idle: interrupted or out-bid, waiting for the price to drop.
	Idle
	// Done: all work finished.
	Done
	// Failed: a one-time request was out-bid before finishing.
	Failed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Idle:
		return "idle"
	case Done:
		return "done"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Outcome summarizes a finished (or failed) job.
type Outcome struct {
	// Completed reports whether the job finished all its work.
	Completed bool
	// Completion is the wall-clock time from submission to finish
	// (or failure), idle time included — the paper's T.
	Completion timeslot.Hours
	// RunTime is the time spent on a running instance (execution +
	// recovery) — the paper's T·F(p), the billed time.
	RunTime timeslot.Hours
	// IdleTime is the time spent waiting for the spot price to drop.
	IdleTime timeslot.Hours
	// RecoveryTime is the running time consumed by recoveries.
	RecoveryTime timeslot.Hours
	// Interruptions counts provider terminations.
	Interruptions int
	// Cost is the total bill in USD.
	Cost float64
	// PricePerRunHour is Cost divided by the billed running time —
	// the "price charged per hour" of Fig. 6(a).
	PricePerRunHour float64
	// CheckpointFailures counts interruption-time checkpoint writes
	// that were lost (chaos-injected); each one forces the job to
	// redo work from an older checkpoint, or from scratch.
	CheckpointFailures int
}

// Tracker advances one job against a region. Create it with
// NewSpotJob or NewOnDemandJob, then call Observe exactly once after
// every region Tick.
type Tracker struct {
	region *cloud.Region
	volume *checkpoint.Volume
	spec   Spec

	req      *cloud.SpotRequest // nil for on-demand
	onDemand *cloud.Instance    // nil for spot

	submitted   int
	finished    int
	remaining   timeslot.Hours
	pendingRec  timeslot.Hours
	needRestore bool
	started     bool
	status      Status

	runSlots, idleSlots int
	recovery            timeslot.Hours
	ckptFailures        int
}

// NewSpotJob submits a spot request for the job at the given bid.
func NewSpotJob(region *cloud.Region, volume *checkpoint.Volume, spec Spec, bid float64, kind cloud.RequestKind) (*Tracker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if volume == nil {
		volume = checkpoint.NewVolume()
	}
	reqs, err := region.RequestSpotInstances(spec.Type, bid, kind, 1)
	if err != nil {
		return nil, err
	}
	return &Tracker{
		region:    region,
		volume:    volume,
		spec:      spec,
		req:       reqs[0],
		submitted: region.Now(),
		remaining: spec.Exec,
		status:    Pending,
	}, nil
}

// NewOnDemandJob launches the job on an on-demand instance.
func NewOnDemandJob(region *cloud.Region, spec Spec) (*Tracker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	inst, err := region.LaunchOnDemand(spec.Type)
	if err != nil {
		return nil, err
	}
	return &Tracker{
		region:    region,
		volume:    checkpoint.NewVolume(), // on-demand never checkpoints; keep Observe uniform
		spec:      spec,
		onDemand:  inst,
		submitted: region.Now(),
		remaining: spec.Exec,
		status:    Pending,
	}, nil
}

// Status reports the job's current state.
func (t *Tracker) Status() Status { return t.status }

// Spec returns the job's spec.
func (t *Tracker) Spec() Spec { return t.spec }

// Request returns the job's spot request (nil for on-demand jobs).
func (t *Tracker) Request() *cloud.SpotRequest { return t.req }

// Instance returns the job's on-demand instance (nil for spot jobs).
// The fleet controller reads it to account for instances whose release
// failed — the invariant liveness checker audits them as leaks.
func (t *Tracker) Instance() *cloud.Instance { return t.onDemand }

// Done reports whether the job has finished or failed.
func (t *Tracker) Done() bool { return t.status == Done || t.status == Failed }

// Remaining reports the execution time still owed (0 once done). The
// on-demand fallback strategy uses it to size the replacement job
// after a one-time request fails.
func (t *Tracker) Remaining() timeslot.Hours { return t.remaining }

// Observe processes the slot that the region just ticked into. It
// must be called exactly once per Tick while the job is live.
func (t *Tracker) Observe() error {
	if t.Done() {
		return nil
	}
	slotHours := timeslot.Hours(float64(t.region.Grid().Slot))

	runningNow := false
	if t.onDemand != nil {
		runningNow = t.onDemand.Running
	} else {
		runningNow = t.req.State == cloud.Active
	}

	if !runningNow {
		// Pending or interrupted: detect a fresh interruption.
		if t.status == Running {
			// The provider killed the instance this slot: save state.
			// A lost write (chaos-injected ErrWriteFailed) is survivable
			// — the previous checkpoint, if any, stays good and the job
			// will redo the work done since; anything else is a real
			// tracker bug and propagates.
			if err := t.volume.Save(t.spec.ID, t.region.Now(), t.remaining); err != nil {
				if !errors.Is(err, checkpoint.ErrWriteFailed) {
					return err
				}
				t.ckptFailures++
			}
			t.needRestore = true
			if t.req != nil && t.req.Kind == cloud.OneTime {
				t.status = Failed
				t.finished = t.region.Now()
				return nil
			}
		}
		t.status = Idle
		if !t.started {
			t.status = Pending
		}
		t.idleSlots++
		return nil
	}

	// Running this slot.
	if t.needRestore {
		// Resuming after an interruption: the in-memory state died
		// with the instance, so progress is whatever the volume holds.
		// With every write durable that is exactly the remaining work
		// at interruption; after a lost write it is an older
		// checkpoint (redo the gap), and with no checkpoint at all the
		// job starts over.
		if rec, ok := t.volume.Restore(t.spec.ID); ok {
			t.remaining = rec.Remaining
			t.pendingRec += t.spec.Recovery
			t.recovery += t.spec.Recovery
		} else {
			t.remaining = t.spec.Exec
		}
		t.needRestore = false
	}
	t.started = true
	t.status = Running
	t.runSlots++

	avail := slotHours
	if t.pendingRec > 0 {
		use := t.pendingRec
		if use > avail {
			use = avail
		}
		t.pendingRec -= use
		avail -= use
	}
	t.remaining -= avail
	// Tolerate float residue from repeated slot subtraction: work
	// within a picosecond of done is done.
	if float64(t.remaining) <= 1e-12 {
		t.remaining = 0
		t.status = Done
		t.finished = t.region.Now()
		t.volume.Delete(t.spec.ID)
		return t.release()
	}
	return nil
}

// releaseAttempts bounds the immediate retries of the resource release
// at completion. A leaked instance keeps billing, so the tracker tries
// hard; at any sane injected fault rate p the chance of p^8 back-to-
// back failures is negligible.
const releaseAttempts = 8

// release returns the job's resources to the region, retrying
// transient (chaos-injected) API failures immediately.
func (t *Tracker) release() error {
	var err error
	for i := 0; i < releaseAttempts; i++ {
		if t.onDemand != nil {
			err = t.region.TerminateInstance(t.onDemand.ID)
		} else {
			err = t.region.CancelSpotRequest(t.req.ID)
		}
		if err == nil || !retry.IsTransient(err) {
			return err
		}
	}
	return err
}

// Outcome summarizes the job. Valid once Done() is true; calling it
// earlier reports progress so far.
func (t *Tracker) Outcome() Outcome {
	slotHours := float64(t.region.Grid().Slot)
	end := t.finished
	if !t.Done() {
		end = t.region.Now()
	}
	var cost float64
	var interruptions int
	if t.onDemand != nil {
		cost = t.onDemand.Cost
	} else {
		interruptions = t.req.Interruptions
		cost = t.region.RequestCost(t.req)
	}
	run := float64(t.runSlots) * slotHours
	out := Outcome{
		Completed:          t.status == Done,
		Completion:         timeslot.Hours(float64(end-t.submitted) * slotHours),
		RunTime:            timeslot.Hours(run),
		IdleTime:           timeslot.Hours(float64(t.idleSlots) * slotHours),
		RecoveryTime:       t.recovery,
		Interruptions:      interruptions,
		Cost:               cost,
		CheckpointFailures: t.ckptFailures,
	}
	if run > 0 {
		out.PricePerRunHour = cost / run
	}
	return out
}

// Merge folds leg b into running total a: times, interruptions, bills
// and checkpoint failures add, and the job is complete when its last
// leg is.
func Merge(a, b Outcome) Outcome {
	out := Outcome{
		Completed:          b.Completed,
		Completion:         a.Completion + b.Completion,
		RunTime:            a.RunTime + b.RunTime,
		IdleTime:           a.IdleTime + b.IdleTime,
		RecoveryTime:       a.RecoveryTime + b.RecoveryTime,
		Interruptions:      a.Interruptions + b.Interruptions,
		Cost:               a.Cost + b.Cost,
		CheckpointFailures: a.CheckpointFailures + b.CheckpointFailures,
	}
	if run := float64(out.RunTime); run > 0 {
		out.PricePerRunHour = out.Cost / run
	}
	return out
}

// Run drives one job slot by slot: tick advances simulated time
// (Region.Tick, or a controller's lockstep tick), the tracker observes
// the new slot, and each, when non-nil, runs after every slot that
// leaves the job live — never after it is done. A true stop returns
// the outcome so far; an error from tick, Observe or each aborts the
// run. ErrEndOfTrace is not an error here — the outcome simply reports
// Completed == false.
func Run(tick func() error, t *Tracker, each func() (stop bool, err error)) (Outcome, error) {
	for !t.Done() {
		if err := tick(); err != nil {
			if errors.Is(err, cloud.ErrEndOfTrace) {
				return t.Outcome(), nil
			}
			return Outcome{}, err
		}
		if err := t.Observe(); err != nil {
			return Outcome{}, err
		}
		if each == nil || t.Done() {
			continue
		}
		stop, err := each()
		if err != nil {
			return Outcome{}, err
		}
		if stop {
			break
		}
	}
	return t.Outcome(), nil
}
