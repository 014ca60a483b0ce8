package workflow

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

func mkTask(id string, execSlots int, deps ...string) Task {
	return Task{
		ID:        id,
		Type:      instances.R3XLarge,
		Exec:      timeslot.Hours(float64(execSlots) / 12.0),
		Recovery:  timeslot.Seconds(30),
		DependsOn: deps,
	}
}

func TestNewValidation(t *testing.T) {
	cases := map[string][]Task{
		"empty":        nil,
		"no id":        {{Type: instances.R3XLarge, Exec: 1}},
		"dup id":       {mkTask("a", 1), mkTask("a", 1)},
		"zero exec":    {{ID: "a", Type: instances.R3XLarge}},
		"bad recovery": {{ID: "a", Type: instances.R3XLarge, Exec: 0.001, Recovery: 1}},
		"unknown dep":  {mkTask("a", 1, "ghost")},
		"self dep":     {mkTask("a", 1, "a")},
		"cycle":        {mkTask("a", 1, "b"), mkTask("b", 1, "a")},
	}
	for name, tasks := range cases {
		if _, err := New(tasks); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func diamond() []Task {
	// a → (b, c) → d
	return []Task{
		mkTask("a", 6),
		mkTask("b", 12, "a"),
		mkTask("c", 6, "a"),
		mkTask("d", 6, "b", "c"),
	}
}

func TestTopoOrder(t *testing.T) {
	w, err := New(diamond())
	if err != nil {
		t.Fatal(err)
	}
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Errorf("order = %v", order)
	}
	if got := len(w.Tasks()); got != 4 {
		t.Errorf("Tasks = %d", got)
	}
}

func TestCriticalPathExec(t *testing.T) {
	w, err := New(diamond())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := w.CriticalPathExec()
	if err != nil {
		t.Fatal(err)
	}
	// a(6) + b(12) + d(6) = 24 slots = 2h.
	if math.Abs(float64(cp)-2) > 1e-9 {
		t.Errorf("critical path = %v, want 2", float64(cp))
	}
}

// wfRegion builds a quiet region with enough history for the price
// monitor.
func wfRegion(t *testing.T, seed int64) *cloud.Region {
	t.Helper()
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 63, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cloud.NewRegion(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Advance past the two-month history window.
	for i := 0; i < 61*288; i++ {
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRunDiamond(t *testing.T) {
	w, err := New(diamond())
	if err != nil {
		t.Fatal(err)
	}
	runner := Runner{Region: wfRegion(t, 41)}
	res, err := runner.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("workflow did not complete")
	}
	if len(res.Tasks) != 4 {
		t.Fatalf("task outcomes = %d", len(res.Tasks))
	}
	// Makespan at least the critical path (2h), and not absurd.
	cp, _ := w.CriticalPathExec()
	if float64(res.Completion) < float64(cp)-1e-9 {
		t.Errorf("makespan %v below critical path %v", float64(res.Completion), float64(cp))
	}
	if float64(res.Completion) > 4*float64(cp) {
		t.Errorf("makespan %v unreasonably above critical path %v", float64(res.Completion), float64(cp))
	}
	// Cost is deep-discount: 30 slots of work at ~0.03.
	if res.TotalCost > 0.2 {
		t.Errorf("cost = %v", res.TotalCost)
	}
	// Every spot task got a positive bid.
	for _, to := range res.Tasks {
		if !to.Task.OnDemand && to.Bid <= 0 {
			t.Errorf("task %s bid %v", to.Task.ID, to.Bid)
		}
		if !to.Outcome.Completed {
			t.Errorf("task %s incomplete", to.Task.ID)
		}
	}
}

func TestRunRespectsDependencies(t *testing.T) {
	// b depends on a; with both on-demand the completion is exactly
	// serial: no overlap is possible.
	tasks := []Task{
		{ID: "a", Type: instances.R3XLarge, Exec: timeslot.Hours(0.5), OnDemand: true},
		{ID: "b", Type: instances.R3XLarge, Exec: timeslot.Hours(0.5), OnDemand: true, DependsOn: []string{"a"}},
	}
	w, err := New(tasks)
	if err != nil {
		t.Fatal(err)
	}
	runner := Runner{Region: wfRegion(t, 43)}
	res, err := runner.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	// 6 + 6 slots serial = 1h: b's first slot follows a's last.
	if float64(res.Completion) < 1.0-1e-9 {
		t.Errorf("serial chain finished in %v < 1h — dependency violated", float64(res.Completion))
	}
	// On-demand cost: 1 instance-hour at 0.35.
	if math.Abs(res.TotalCost-0.35) > 0.04 {
		t.Errorf("cost = %v, want ≈ 0.35", res.TotalCost)
	}
}

// TestRunDeterministic: a dependent is first observed in the slot
// after its submission, so every task's run and idle time add up to its
// completion time, and repeated runs agree field for field. The DAG is
// the example's diamond with three children of merge, so several
// dependents are released in one slot.
func TestRunDeterministic(t *testing.T) {
	task := func(id string, exec timeslot.Hours, deps ...string) Task {
		return Task{ID: id, Type: instances.R3XLarge, Exec: exec, Recovery: timeslot.Seconds(30), DependsOn: deps}
	}
	w, err := New([]Task{
		task("prepare", 0.5),
		task("analyze-a", 1, "prepare"),
		task("analyze-b", 0.75, "prepare"),
		task("merge", 0.25, "analyze-a", "analyze-b"),
		task("report-1", 0.5, "merge"),
		task("report-2", 0.5, "merge"),
		task("report-3", 0.5, "merge"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var first Result
	for i := 0; i < 20; i++ {
		res, err := (&Runner{Region: wfRegion(t, 99)}).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("workflow did not complete")
		}
		for _, to := range res.Tasks {
			o := to.Outcome
			if math.Abs(float64(o.RunTime+o.IdleTime-o.Completion)) > 1e-9 {
				t.Fatalf("run %d task %s: run %v + idle %v != completion %v", i, to.Task.ID,
					float64(o.RunTime), float64(o.IdleTime), float64(o.Completion))
			}
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d differs from run 0:\n%+v\nvs\n%+v", i, res, first)
		}
	}
}

func TestRunParallelBranchesOverlap(t *testing.T) {
	// Two independent 1h tasks: makespan ≈ 1h, not 2h.
	tasks := []Task{mkTask("x", 12), mkTask("y", 12)}
	w, err := New(tasks)
	if err != nil {
		t.Fatal(err)
	}
	runner := Runner{Region: wfRegion(t, 45)}
	res, err := runner.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if float64(res.Completion) > 1.6 {
		t.Errorf("independent tasks did not overlap: makespan %v", float64(res.Completion))
	}
}

func TestRunTraceExhaustion(t *testing.T) {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 61, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	region, err := cloud.NewRegion(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Stand one slot before the end: nothing can finish.
	for i := 0; i < tr.Len()-2; i++ {
		if err := region.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := New([]Task{mkTask("a", 12)})
	if err != nil {
		t.Fatal(err)
	}
	runner := Runner{Region: region, HistoryWindow: timeslot.Hours(24)}
	res, err := runner.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("cannot complete at the trace edge")
	}
}

func TestRunnerValidation(t *testing.T) {
	w, _ := New([]Task{mkTask("a", 1)})
	if _, err := (&Runner{}).Run(w); err == nil {
		t.Error("nil region accepted")
	}
}
