package fleet

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/obs/event"
	"repro/internal/retry"
	"repro/internal/timeslot"
)

// Leg is one attempt to run the job in one region.
type Leg struct {
	// Member is the hosting region's ID.
	Member string
	// Strategy is the leg's bidding strategy ("persistent" for spot
	// legs, "on-demand" for the escalation leg).
	Strategy string
	// Aborted is why the leg was cut short ("" when it ran to its
	// natural end — completion or end of trace).
	Aborted string
	// Report is the member client's report. Aborted legs carry only the
	// partial Outcome observed at drain time.
	Report client.Report
}

// Event is one entry of the failover schedule.
type Event struct {
	// Slot is the fleet slot the event happened at.
	Slot int
	// Kind is the event type: assign, trip, probe, close, migrate,
	// veto, escalate, infeasible, orphan, reclaim, import-failed.
	Kind string
	// Member is the region the event concerns.
	Member string
	// Detail is a human-readable elaboration.
	Detail string
}

// Report summarizes one fleet job: every leg, the failover schedule,
// and the merged outcome.
type Report struct {
	// Spec is the job as submitted.
	Spec job.Spec
	// Legs lists every attempt in order.
	Legs []Leg
	// Events is the failover schedule.
	Events []Event
	// Outcome merges all legs: total cost, completion, run/idle time.
	Outcome job.Outcome
	// Migrations counts cross-region moves.
	Migrations int
	// Escalated reports the job finished (or tried to) on-demand.
	Escalated bool
	// FleetCost is the sum of every member region's bill delta over the
	// run — unlike Outcome.Cost it includes slots leaked by orphaned
	// requests that relaunched before their cancel landed.
	FleetCost float64
	// LeakedRequests lists spot request IDs still unreleased when the
	// run ended: their cancel budget was exhausted and the per-slot
	// reclaim loop had not landed either. In member order, then
	// orphan-record order. The invariant liveness and billing checkers
	// treat these — and only these — open requests as excused leaks.
	LeakedRequests []string
	// LeakedInstances lists on-demand instance IDs whose release failed
	// at the end of a completed escalation leg; their bill stays in
	// FleetCost.
	LeakedInstances []string
}

// Schedule renders the failover schedule deterministically: one line
// per event, fixed-width, in event order. Byte-identical across runs
// with the same seeds — the determinism contract's observable.
func (r Report) Schedule() string {
	var b strings.Builder
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "slot %05d %-12s %-10s %s\n", ev.Slot, ev.Member, ev.Kind, ev.Detail)
	}
	return b.String()
}

func (f *Controller) event(slot int, kind, member, detail string) {
	f.events = append(f.events, Event{Slot: slot, Kind: kind, Member: member, Detail: detail})
}

// RunPersistent runs the job under the paper's persistent strategy
// with fleet supervision: legs run on the healthiest region, breaker
// trips drain and migrate the job (checkpoint export → import, paying
// t_r plus the migration penalty), Eq. 14 infeasibility skips a region
// without quarantining it, and when no region qualifies the job
// escalates to on-demand.
func (f *Controller) RunPersistent(spec job.Spec) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	f.events = nil
	f.escalated = false
	f.migrations = 0
	f.pendingImport = nil
	f.leakedInsts = nil
	for _, m := range f.members {
		m.infeasible = false
	}
	startCost := make([]float64, len(f.members))
	for i, m := range f.members {
		startCost[i] = m.Region.TotalCost()
	}
	if f.rec != nil {
		// The job's root span: every leg span (opened by the member
		// clients) and every failover event nests under it, so the
		// job's whole cross-region lifecycle is one reconstructable
		// trace tree.
		root := f.rec.BeginSpan("job:"+spec.ID, spec.ID, "", f.now())
		defer func() { f.rec.EndSpan(root, f.now()) }()
	}

	rep := Report{Spec: spec}
	legExec := spec.Exec

runLoop:
	for {
		idx := f.pick(-1)
		if idx < 0 || f.migrations > f.cfg.MaxMigrations {
			leg, err := f.escalate(spec, legExec)
			if err != nil {
				return rep, err
			}
			rep.Legs = append(rep.Legs, leg)
			rep.Outcome = job.Merge(rep.Outcome, leg.Report.Outcome)
			break
		}
		m := f.members[idx]
		f.stageCheckpoint(m, spec)
		legSpec := spec
		legSpec.Exec = legExec
		f.active = idx
		f.event(f.now(), "assign", m.ID, fmt.Sprintf("exec %.4fh bid persistent", float64(legExec)))
		cRep, err := m.Client.RunPersistent(legSpec)
		f.active = -1
		switch {
		case err == nil:
			rep.Legs = append(rep.Legs, Leg{Member: m.ID, Strategy: "persistent", Report: cRep})
			rep.Outcome = job.Merge(rep.Outcome, cRep.Outcome)
		case errors.Is(err, core.ErrInfeasible):
			// Eq. 14 says no bid completes the job here in expectation.
			// Not a region fault: skip it for this run without tripping.
			m.infeasible = true
			f.met.Counter("fleet.infeasible").Inc()
			f.event(f.now(), "infeasible", m.ID, "Eq. 14 feasibility bound failed")
			continue
		case errors.Is(err, ErrBreakerOpen), errors.Is(err, client.ErrFallbackVetoed), retry.IsTransient(err):
			// The breaker tripped mid-run; or the client gave up on its
			// bid and a sibling can take the job; or the region's API
			// surface is failing outright (e.g. a region outage at
			// submission). Quarantine, drain, and migrate.
			if m.state != Open {
				f.trip(idx, abortReason(err))
			}
			if tr := m.Client.Active(); tr != nil && retry.IsTransient(err) {
				if out := tr.Outcome(); out.Completed {
					// The work finished; only the resource release failed
					// (the same outage that trips the breaker also swallows
					// the cancel). Accept the completed leg and leave the
					// request to the orphan-reclaim loop rather than
					// migrating a zero-work stub.
					if req := tr.Request(); req != nil &&
						(req.State == cloud.Open || req.State == cloud.Active) {
						m.orphans = append(m.orphans, req.ID)
						f.met.Counter("fleet.orphans").Inc()
						f.event(f.now(), "orphan", m.ID, "release failed for "+req.ID)
					}
					if f.rec != nil {
						// The client's error return skipped its own
						// LegComplete; record the accepted leg here.
						f.rec.Emit(&event.Event{Kind: event.LegComplete, Slot: f.now(),
							Region: m.ID, Job: spec.ID, Subject: "persistent",
							Cause: "completed-unreleased", Value: out.Cost})
					}
					rep.Legs = append(rep.Legs, Leg{Member: m.ID, Strategy: "persistent",
						Report: client.Report{Strategy: "persistent", Outcome: out}})
					rep.Outcome = job.Merge(rep.Outcome, out)
					break runLoop
				}
			}
			if f.rec != nil {
				f.rec.Emit(&event.Event{Kind: event.Drain, Slot: f.now(),
					Region: m.ID, Job: spec.ID, Cause: abortReason(err)})
			}
			legOut, newExec, gerr := f.drain(m, spec, legSpec)
			if gerr != nil {
				return rep, gerr
			}
			if f.rec != nil {
				// Aborted legs never reach the client's LegComplete emit —
				// exactly one LegComplete per leg either way.
				f.rec.Emit(&event.Event{Kind: event.LegComplete, Slot: f.now(),
					Region: m.ID, Job: spec.ID, Subject: "persistent",
					Cause: "aborted:" + abortReason(err), Value: legOut.Cost})
			}
			rep.Legs = append(rep.Legs, Leg{Member: m.ID, Strategy: "persistent",
				Aborted: abortReason(err), Report: client.Report{Strategy: "persistent", Outcome: legOut}})
			rep.Outcome = job.Merge(rep.Outcome, legOut)
			legExec = newExec
			f.migrations++
			f.met.Counter("fleet.migrations").Inc()
			f.event(f.now(), "migrate", m.ID, fmt.Sprintf("draining; next leg exec %.4fh", float64(newExec)))
			if f.rec != nil {
				f.rec.Emit(&event.Event{Kind: event.Migrate, Slot: f.now(),
					Region: m.ID, Job: spec.ID, Cause: abortReason(err),
					Value: float64(newExec)})
			}
			continue
		default:
			return rep, err
		}
		break
	}

	rep.Migrations = f.migrations
	rep.Escalated = f.escalated
	rep.Events = append([]Event(nil), f.events...)
	for i, m := range f.members {
		rep.FleetCost += m.Region.TotalCost() - startCost[i]
		rep.LeakedRequests = append(rep.LeakedRequests, m.orphans...)
	}
	rep.LeakedInstances = append(rep.LeakedInstances, f.leakedInsts...)
	return rep, nil
}

// abortReason compresses a leg-aborting error into a schedule label.
func abortReason(err error) string {
	switch {
	case errors.Is(err, ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, client.ErrFallbackVetoed):
		return "fallback-vetoed"
	default:
		return "transient: " + err.Error()
	}
}

// drain shuts an aborted leg down and prices the next one: the spot
// request is cancelled (an exhausted cancel budget records an orphan
// retried every slot), the freshest progress is saved, and the job's
// last DURABLE checkpoint — a chaos-failed save falls back to the
// record before it — is exported for the target region. A leg that
// made durable progress pays the recovery time t_r plus the migration
// penalty on top of the remaining work; a leg with nothing durable
// restarts from the leg's full size, with nothing to restore and
// nothing charged.
func (f *Controller) drain(m *member, spec job.Spec, legSpec job.Spec) (job.Outcome, timeslot.Hours, error) {
	var legOut job.Outcome
	tracker := m.Client.Active()
	if tracker != nil {
		legOut = tracker.Outcome()
		if req := tracker.Request(); req != nil &&
			(req.State == cloud.Open || req.State == cloud.Active) {
			if !f.cancelRequest(m, req.ID) {
				m.orphans = append(m.orphans, req.ID)
				f.met.Counter("fleet.orphans").Inc()
				f.event(f.now(), "orphan", m.ID, "cancel budget exhausted for "+req.ID)
			}
		}
		if err := m.Client.Volume.Save(spec.ID, m.Region.Now(), tracker.Remaining()); err != nil &&
			!errors.Is(err, checkpoint.ErrWriteFailed) {
			return legOut, 0, err
		}
	}
	durable := legSpec.Exec
	rec, err := m.Client.Volume.Export(spec.ID)
	switch {
	case err == nil:
		durable = rec.Remaining
	case errors.Is(err, checkpoint.ErrNotFound):
		// Never durably checkpointed: the next leg restarts from
		// scratch — there is no state to move, so no penalty either.
	default:
		return legOut, 0, err
	}
	newExec := legSpec.Exec
	if progressed := float64(durable) < float64(legSpec.Exec)-1e-9; progressed {
		newExec = durable + f.cfg.MigrationPenalty + spec.Recovery
		f.pendingImport = &checkpoint.Record{
			JobID:       spec.ID,
			Slot:        f.now(),
			Remaining:   durable + f.cfg.MigrationPenalty,
			Resumptions: rec.Resumptions,
		}
	} else if err == nil {
		// Durable state exists but this leg added nothing (e.g. it
		// never launched): carry the record forward unchanged.
		f.pendingImport = &rec
	}
	return legOut, newExec, nil
}

// stageCheckpoint prepares the target member's volume for a leg: any
// stale record for the job is cleared, then the migrated checkpoint —
// if one is in flight — is imported. A chaos-failed import loses the
// transfer (the leg still carries the work in its spec; the job's
// first interruption in the new region re-saves).
func (f *Controller) stageCheckpoint(m *member, spec job.Spec) {
	m.Client.Volume.Delete(spec.ID)
	if f.pendingImport == nil {
		return
	}
	if err := m.Client.Volume.Import(*f.pendingImport); err != nil {
		f.met.Counter("fleet.import_failures").Inc()
		f.event(f.now(), "import-failed", m.ID, err.Error())
	}
	f.pendingImport = nil
}

// escalate finishes the job on-demand on the least-unhealthy member —
// spot capacity is gone or infeasible everywhere, and the paper's §3.2
// playbook defaults to on-demand for completion control. The breaker
// machinery stands down for the rest of the run so the on-demand
// instance can never be stranded by a trip.
func (f *Controller) escalate(spec job.Spec, legExec timeslot.Hours) (Leg, error) {
	f.escalated = true
	f.met.Counter("fleet.escalations").Inc()
	idx := f.pickAny()
	m := f.members[idx]
	f.stageCheckpoint(m, spec)
	od := spec
	od.ID = spec.ID + "-escalated"
	od.Exec = legExec
	od.Recovery = 0 // on-demand never gets interrupted
	f.event(f.now(), "escalate", m.ID, fmt.Sprintf("on-demand exec %.4fh", float64(legExec)))
	if f.rec != nil {
		f.rec.Emit(&event.Event{Kind: event.FallbackOnDemand, Slot: f.now(),
			Region: m.ID, Job: spec.ID, Cause: "fleet-escalation", Value: float64(legExec)})
	}
	f.active = idx
	cRep, err := m.Client.RunOnDemand(od)
	f.active = -1
	if err != nil {
		tr := m.Client.Active()
		if tr == nil || !retry.IsTransient(err) {
			return Leg{}, err
		}
		out := tr.Outcome()
		if !out.Completed {
			return Leg{}, err
		}
		// The work finished; only the instance release failed — e.g. a
		// region-wide outage swallowing the terminate call. The orphaned
		// instance's bill stays in FleetCost; don't fail a completed job.
		f.met.Counter("fleet.orphans").Inc()
		f.event(f.now(), "orphan", m.ID, "on-demand release failed: "+err.Error())
		if inst := tr.Instance(); inst != nil {
			f.leakedInsts = append(f.leakedInsts, inst.ID)
		}
		cRep = client.Report{Strategy: "on-demand", Outcome: out}
	}
	return Leg{Member: m.ID, Strategy: "on-demand", Report: cRep}, nil
}
