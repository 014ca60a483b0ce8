// Package workflow implements the §8 "task dependence" extension:
// jobs whose tasks form a DAG, where a task "cannot proceed before
// other tasks have been completed". Exactly as the paper prescribes,
// the scheduler bids on a task only after its dependencies finish —
// "we will not bid on idle tasks that are waiting for other tasks" —
// so pending dependents accrue no cost and no idle exposure.
//
// Each ready task runs as a persistent spot request (or on-demand)
// via the job tracker; the workflow's completion time is its critical
// path through the realized (interruption-laden) task durations.
package workflow

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
)

// Task is one node of the workflow DAG.
type Task struct {
	// ID names the task; unique within the workflow.
	ID string
	// Type is the instance type the task runs on.
	Type instances.Type
	// Exec is the task's execution time t_s.
	Exec timeslot.Hours
	// Recovery is the task's per-interruption recovery t_r.
	Recovery timeslot.Hours
	// DependsOn lists task IDs that must complete first.
	DependsOn []string
	// OnDemand runs the task on an on-demand instance instead of a
	// persistent spot request (for tasks on the critical path that
	// cannot tolerate idle time).
	OnDemand bool
}

// Workflow is a DAG of tasks.
type Workflow struct {
	tasks map[string]Task
	order []string // insertion order for determinism
}

// New builds a workflow from tasks, validating IDs, dependencies, and
// acyclicity.
func New(tasks []Task) (*Workflow, error) {
	if len(tasks) == 0 {
		return nil, errors.New("workflow: no tasks")
	}
	w := &Workflow{tasks: make(map[string]Task, len(tasks))}
	for _, t := range tasks {
		if t.ID == "" {
			return nil, errors.New("workflow: empty task ID")
		}
		if _, dup := w.tasks[t.ID]; dup {
			return nil, fmt.Errorf("workflow: duplicate task ID %q", t.ID)
		}
		if !(t.Exec > 0) {
			return nil, fmt.Errorf("workflow: task %q execution time %v must be positive", t.ID, float64(t.Exec))
		}
		if t.Recovery < 0 || t.Recovery >= t.Exec {
			return nil, fmt.Errorf("workflow: task %q recovery %v outside [0, exec)", t.ID, float64(t.Recovery))
		}
		w.tasks[t.ID] = t
		w.order = append(w.order, t.ID)
	}
	for _, t := range tasks {
		for _, dep := range t.DependsOn {
			if _, ok := w.tasks[dep]; !ok {
				return nil, fmt.Errorf("workflow: task %q depends on unknown task %q", t.ID, dep)
			}
			if dep == t.ID {
				return nil, fmt.Errorf("workflow: task %q depends on itself", t.ID)
			}
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return nil, err
	}
	return w, nil
}

// Tasks returns the tasks in insertion order.
func (w *Workflow) Tasks() []Task {
	out := make([]Task, len(w.order))
	for i, id := range w.order {
		out[i] = w.tasks[id]
	}
	return out
}

// TopoOrder returns a topological ordering, or an error when the
// graph has a cycle.
func (w *Workflow) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(w.tasks))
	dependents := make(map[string][]string)
	for _, id := range w.order {
		indeg[id] = len(w.tasks[id].DependsOn)
		for _, dep := range w.tasks[id].DependsOn {
			dependents[dep] = append(dependents[dep], id)
		}
	}
	var ready []string
	for _, id := range w.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)
	var out []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		next := dependents[id]
		sort.Strings(next)
		for _, d := range next {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(out) != len(w.tasks) {
		return nil, fmt.Errorf("workflow: dependency cycle among %d task(s)", len(w.tasks)-len(out))
	}
	return out, nil
}

// CriticalPathExec returns the DAG's critical-path execution time
// (ignoring interruptions): the lower bound on any schedule's
// completion.
func (w *Workflow) CriticalPathExec() (timeslot.Hours, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := make(map[string]timeslot.Hours, len(order))
	var max timeslot.Hours
	for _, id := range order {
		t := w.tasks[id]
		var start timeslot.Hours
		for _, dep := range t.DependsOn {
			if finish[dep] > start {
				start = finish[dep]
			}
		}
		finish[id] = start + t.Exec
		if finish[id] > max {
			max = finish[id]
		}
	}
	return max, nil
}

// TaskOutcome is one task's result.
type TaskOutcome struct {
	Task Task
	// Bid is the persistent bid used (0 for on-demand tasks).
	Bid float64
	// StartSlot is when the task's request was submitted (after its
	// dependencies completed).
	StartSlot int
	// Outcome is the measured execution.
	Outcome job.Outcome
}

// Result summarizes a workflow run.
type Result struct {
	// Completed reports whether every task finished.
	Completed bool
	// Completion is the wall-clock makespan in hours.
	Completion timeslot.Hours
	// TotalCost sums all task bills.
	TotalCost float64
	// Interruptions sums task interruptions.
	Interruptions int
	// Tasks holds per-task outcomes in completion order.
	Tasks []TaskOutcome
}

// Runner executes workflows against a region.
type Runner struct {
	// Region is the simulated cloud.
	Region *cloud.Region
	// Volume stores task checkpoints.
	Volume *checkpoint.Volume
	// HistoryWindow bounds the price-monitor window (default: two
	// months).
	HistoryWindow timeslot.Hours
}

// Run executes the workflow: tasks submit (with freshly computed
// Prop. 5 bids) the moment their dependencies complete, and the
// region ticks until everything finishes or the trace ends.
func (r *Runner) Run(w *Workflow) (Result, error) {
	if r.Region == nil {
		return Result{}, errors.New("workflow: nil region")
	}
	if r.Volume == nil {
		r.Volume = checkpoint.NewVolume()
	}
	window := r.HistoryWindow
	if window == 0 {
		window = timeslot.Hours(61 * 24)
	}

	order, err := w.TopoOrder()
	if err != nil {
		return Result{}, err
	}
	remainingDeps := make(map[string]int, len(order))
	dependents := make(map[string][]string)
	for _, id := range order {
		t := w.tasks[id]
		remainingDeps[id] = len(t.DependsOn)
		for _, dep := range t.DependsOn {
			dependents[dep] = append(dependents[dep], id)
		}
	}

	// live holds the running tasks in submission order, so every slot
	// observes them, and sums their outcomes, in the same order.
	type liveTask struct {
		id string
		tr *job.Tracker
	}
	var live []liveTask
	bids := make(map[string]float64)
	var res Result
	start := r.Region.Now()
	doneCount := 0

	submit := func(id string) error {
		t := w.tasks[id]
		spec := job.Spec{ID: "wf-" + t.ID, Type: t.Type, Exec: t.Exec, Recovery: t.Recovery}
		if t.OnDemand {
			tr, err := job.NewOnDemandJob(r.Region, spec)
			if err != nil {
				return err
			}
			live = append(live, liveTask{id, tr})
			return nil
		}
		// Bid afresh at submission time — the §8 prescription: no
		// bids for tasks still waiting on dependencies.
		hist, err := r.Region.PriceHistory(t.Type, window)
		if err != nil {
			return err
		}
		ecdf, err := hist.ECDF(0)
		if err != nil {
			return err
		}
		spec2, err := instances.Lookup(t.Type)
		if err != nil {
			return err
		}
		m := core.Market{Price: ecdf, OnDemand: spec2.OnDemand,
			Slot: timeslot.Hours(float64(r.Region.Grid().Slot))}
		bid, err := m.PersistentBid(core.Job{Exec: t.Exec, Recovery: t.Recovery})
		if err != nil {
			return fmt.Errorf("workflow: bidding task %q: %w", t.ID, err)
		}
		bids[id] = bid.Price
		tr, err := job.NewSpotJob(r.Region, r.Volume, spec, bid.Price, cloud.Persistent)
		if err != nil {
			return err
		}
		live = append(live, liveTask{id, tr})
		return nil
	}

	// Seed the roots.
	for _, id := range order {
		if remainingDeps[id] == 0 {
			if err := submit(id); err != nil {
				return Result{}, err
			}
		}
	}

	for doneCount < len(order) {
		if err := r.Region.Tick(); err != nil {
			if errors.Is(err, cloud.ErrEndOfTrace) {
				break
			}
			return Result{}, err
		}
		// Dependents released this slot are submitted after the sweep,
		// so each first observes the next slot, like the roots.
		var released []string
		kept := live[:0]
		for _, lt := range live {
			if err := lt.tr.Observe(); err != nil {
				return Result{}, err
			}
			if !lt.tr.Done() {
				kept = append(kept, lt)
				continue
			}
			out := lt.tr.Outcome()
			res.Tasks = append(res.Tasks, TaskOutcome{
				Task:      w.tasks[lt.id],
				Bid:       bids[lt.id],
				StartSlot: r.Region.Now() - int(float64(out.Completion)/float64(r.Region.Grid().Slot)),
				Outcome:   out,
			})
			res.TotalCost += out.Cost
			res.Interruptions += out.Interruptions
			doneCount++
			if !out.Completed {
				// A failed task (trace exhaustion) wedges the DAG.
				continue
			}
			deps := dependents[lt.id]
			sort.Strings(deps)
			for _, d := range deps {
				remainingDeps[d]--
				if remainingDeps[d] == 0 {
					released = append(released, d)
				}
			}
		}
		live = kept
		for _, id := range released {
			if err := submit(id); err != nil {
				return Result{}, err
			}
		}
	}
	// Any still-live tasks at trace end contribute their partial cost.
	for _, lt := range live {
		out := lt.tr.Outcome()
		res.Tasks = append(res.Tasks, TaskOutcome{Task: w.tasks[lt.id], Bid: bids[lt.id], Outcome: out})
		res.TotalCost += out.Cost
		res.Interruptions += out.Interruptions
	}
	res.Completed = doneCount == len(order) && len(live) == 0 && allCompleted(res.Tasks)
	res.Completion = timeslot.Hours(float64(r.Region.Now()-start) * float64(r.Region.Grid().Slot))
	return res, nil
}

func allCompleted(tasks []TaskOutcome) bool {
	for _, t := range tasks {
		if !t.Outcome.Completed {
			return false
		}
	}
	return true
}
