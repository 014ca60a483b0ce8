package invariant

import (
	"bytes"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// Scenario is the deterministic fleet run the fault-schedule explorer
// perturbs: a small fleet of regions with seeded price traces, a
// short warm-up, and one persistent job, everything sized so hundreds
// of runs fit a smoke-test budget. The zero value gets the defaults
// below. Trace generation is memoized repo-wide, so every run of the
// same scenario shares the same immutable traces.
type Scenario struct {
	// Regions is the fleet size (default 2). Member IDs are
	// "region-0".."region-N-1"; fault targets must name one of them
	// ("" targets the home region, region-0).
	Regions int
	// Seed derives every trace seed (trace i uses Seed + i*4099, the
	// experiments package's spacing). Default 1.
	Seed int64
	// Days is the generated trace length (default 8).
	Days int
	// Warmup is how many slots of price history accrue before the job
	// is submitted (default 576 = 2 days).
	Warmup int
	// HistoryWindow is each member client's price-history window
	// (default 48h — short enough that warm-up saturates it).
	HistoryWindow timeslot.Hours
	// Type is the instance type (default R3XLarge).
	Type instances.Type
	// Exec is the job size in hours (default 1).
	Exec timeslot.Hours
	// Recovery is the per-interruption recovery time t_r (default 30s).
	Recovery timeslot.Hours
	// Mutate, when non-nil, corrupts the final run state before the
	// checkers see it. It exists for mutation tests — proving a
	// deliberately seeded defect is caught and shrunk — and must be
	// deterministic for shrinking to converge.
	Mutate func(st *RunState)
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Regions <= 0 {
		sc.Regions = 2
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Days <= 0 {
		sc.Days = 8
	}
	if sc.Warmup <= 0 {
		sc.Warmup = 2 * 288
	}
	if sc.HistoryWindow <= 0 {
		sc.HistoryWindow = 48
	}
	if sc.Type == "" {
		sc.Type = instances.R3XLarge
	}
	if sc.Exec <= 0 {
		sc.Exec = 1
	}
	if sc.Recovery <= 0 {
		sc.Recovery = timeslot.Seconds(30)
	}
	return sc
}

// SubmitSlot is the slot the job is submitted at — the natural base
// for fault-schedule offsets.
func (sc Scenario) SubmitSlot() int { return sc.withDefaults().Warmup }

// RunResult is one completed scenario run: the final state the
// checkers audit, the full event stream, and the determinism
// fingerprint CompareReplay matches across runs.
type RunResult struct {
	State       *RunState
	Events      []event.Event
	Fingerprint []byte
}

// Run executes the scenario under the given fault schedule and
// returns the audited state. Faults are partitioned by Target onto
// per-member schedule injectors; an empty Target means the home
// region. The run itself is expected to SURVIVE every schedule — the
// checkers decide afterwards whether the survival was honest.
func (sc Scenario) Run(sched chaos.Schedule) (*RunResult, error) {
	sc = sc.withDefaults()
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	byMember := make([][]chaos.FaultAt, sc.Regions)
	for _, f := range sched {
		idx := 0
		if f.Target != "" {
			idx = -1
			for i := 0; i < sc.Regions; i++ {
				if f.Target == fmt.Sprintf("region-%d", i) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("invariant: fault target %q names no member of a %d-region fleet",
					f.Target, sc.Regions)
			}
		}
		byMember[idx] = append(byMember[idx], f)
	}

	rec := event.NewRecorder()
	met := obs.New()
	members := make([]fleet.Member, sc.Regions)
	states := make([]MemberState, sc.Regions)
	for i := range members {
		tr, err := trace.Generate(sc.Type, trace.GenOptions{Days: sc.Days, Seed: sc.Seed + int64(i)*4099})
		if err != nil {
			return nil, err
		}
		region, err := cloud.NewRegion(tr)
		if err != nil {
			return nil, err
		}
		cl, err := client.New(region)
		if err != nil {
			return nil, err
		}
		cl.HistoryWindow = sc.HistoryWindow
		cl.SetMetrics(obs.New())
		id := fmt.Sprintf("region-%d", i)
		var inj *chaos.ScheduleInjector
		if len(byMember[i]) > 0 {
			inj, err = chaos.NewSchedule(chaos.Schedule(byMember[i]))
			if err != nil {
				return nil, err
			}
			if err := inj.Arm(region, cl.Volume); err != nil {
				return nil, err
			}
		}
		members[i] = fleet.Member{ID: id, Region: region, Client: cl}
		states[i] = MemberState{ID: id, Region: region, Volume: cl.Volume,
			Metrics: cl.Metrics, Injector: inj}
	}
	ctl, err := fleet.NewController(fleet.Config{Metrics: met, Trace: rec}, members...)
	if err != nil {
		return nil, err
	}
	if err := ctl.Skip(sc.Warmup); err != nil {
		return nil, err
	}
	spec := job.Spec{ID: "resil", Type: sc.Type, Exec: sc.Exec, Recovery: sc.Recovery}
	rep, err := ctl.RunPersistent(spec)
	if err != nil {
		return nil, fmt.Errorf("invariant: scenario run under %d faults: %w", len(sched), err)
	}

	st := &RunState{Spec: spec, Members: states, Report: rep}
	if sc.Mutate != nil {
		sc.Mutate(st)
	}
	return &RunResult{State: st, Events: rec.Events(), Fingerprint: fingerprint(st, met, rec)}, nil
}

// Fingerprint serializes a run's determinism fingerprint — the
// exported entry for harnesses (e.g. the strategy tournament) that
// assemble RunResults from their own runs instead of Scenario.Run.
func Fingerprint(st *RunState, met *obs.Registry, rec *event.Recorder) []byte {
	return fingerprint(st, met, rec)
}

// fingerprint serializes everything the determinism contract pins:
// the failover schedule, the merged outcome, the fleet and member
// metric snapshots, and the byte-stable flight-recorder export.
func fingerprint(st *RunState, met *obs.Registry, rec *event.Recorder) []byte {
	var b bytes.Buffer
	b.WriteString(st.Report.Schedule())
	out := st.Report.Outcome
	fmt.Fprintf(&b, "completed=%v completion=%v runtime=%v interruptions=%d cost=%v fleetcost=%v migrations=%d escalated=%v leaked=%d/%d\n",
		out.Completed, float64(out.Completion), float64(out.RunTime), out.Interruptions,
		out.Cost, st.Report.FleetCost, st.Report.Migrations, st.Report.Escalated,
		len(st.Report.LeakedRequests), len(st.Report.LeakedInstances))
	writeSnapshot(&b, met)
	for _, m := range st.Members {
		writeSnapshot(&b, m.Metrics)
	}
	if err := rec.WriteJSONL(&b); err != nil {
		fmt.Fprintf(&b, "event export failed: %v\n", err)
	}
	return b.Bytes()
}

func writeSnapshot(b *bytes.Buffer, reg *obs.Registry) {
	if reg == nil {
		return
	}
	j, err := reg.Snapshot().JSON()
	if err != nil {
		fmt.Fprintf(b, "snapshot failed: %v\n", err)
		return
	}
	b.Write(j)
	b.WriteByte('\n')
}
