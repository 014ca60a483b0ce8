package mapreduce

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/timeslot"
)

// NodeSpec describes how one node role is provisioned.
type NodeSpec struct {
	// Type is the instance type for this role.
	Type instances.Type
	// OnDemand provisions the role on an on-demand instance;
	// Bid/Kind are then ignored.
	OnDemand bool
	// Bid is the spot bid price.
	Bid float64
	// Kind is the spot request kind. The paper uses a one-time
	// request for the master and persistent requests for slaves (§6.2).
	Kind cloud.RequestKind
}

// Config parameterizes one MapReduce run.
type Config struct {
	// Master and Slave describe the two node roles.
	Master, Slave NodeSpec
	// Workers is M, the number of slave nodes (≥ 1).
	Workers int
	// Recovery is t_r: extra running time a slave consumes when it
	// resumes an interrupted task.
	Recovery timeslot.Hours
	// Overhead is t_o: the fixed splitting overhead, spread evenly
	// over the map tasks (Eq. 17 adds it once to the total work).
	Overhead timeslot.Hours
	// WordsPerHour is slave throughput: how much corpus one slave
	// chews through per running hour. Sets the job's execution time
	// t_s = corpus words / WordsPerHour.
	WordsPerHour float64
}

// tasksPerWorker sets task granularity: the corpus is split into
// Workers × tasksPerWorker map tasks.
const tasksPerWorker = 4

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("mapreduce: worker count %d must be at least 1", c.Workers)
	}
	if c.Recovery < 0 || c.Overhead < 0 {
		return fmt.Errorf("mapreduce: negative recovery (%v) or overhead (%v)",
			float64(c.Recovery), float64(c.Overhead))
	}
	if !(c.WordsPerHour > 0) {
		return fmt.Errorf("mapreduce: throughput %v words/hour must be positive", c.WordsPerHour)
	}
	return nil
}

// Result summarizes a MapReduce run.
type Result struct {
	// Completed reports whether every task finished and the reduce
	// phase ran.
	Completed bool
	// MasterOutbid reports a fatal master interruption (one-time
	// master request lost to the spot price).
	MasterOutbid bool
	// Completion is submission-to-finish wall-clock time.
	Completion timeslot.Hours
	// MasterCost and SlaveCost split the bill by role (Table 4's
	// cost breakdown).
	MasterCost, SlaveCost float64
	// TotalCost is the whole job's bill.
	TotalCost float64
	// Interruptions counts slave provider-terminations.
	Interruptions int
	// Reassignments counts tasks that moved back to the pending
	// queue after an interruption.
	Reassignments int
	// Counts is the reduced output (word → count for WordCount).
	Counts map[string]int
}

// task is one unit of map work.
type task struct {
	shard     []string
	remaining timeslot.Hours
}

// Note on speculative execution: Hadoop re-runs straggler tasks on
// free nodes. This engine does not need it — an interrupted slave
// returns its task (with checkpointed progress) to the pending pool
// immediately, so no idle node can hoard work, and all slaves share
// one throughput. The only unservable state is the whole market
// pricing above the bid, which speculation cannot help.

// slave tracks one slave node's cloud state and assignment.
type slave struct {
	req        *cloud.SpotRequest
	inst       *cloud.Instance
	task       *task
	pendingRec timeslot.Hours
	wasRunning bool
	everRan    bool
	needRec    bool
}

func (s *slave) running() bool {
	if s.inst != nil {
		return s.inst.Running
	}
	return s.req.State == cloud.Active
}

// Run executes the corpus on the region under the given
// configuration. It drives region.Tick itself; the region must be
// dedicated to this run.
func Run(region *cloud.Region, corpus *Corpus, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if corpus == nil || len(corpus.Docs) == 0 {
		return Result{}, errors.New("mapreduce: empty corpus")
	}
	// Build the task pool: shards plus the per-task share of t_o.
	shards, err := corpus.Shard(cfg.Workers * tasksPerWorker)
	if err != nil {
		return Result{}, err
	}
	perWord := 1 / cfg.WordsPerHour
	overheadShare := timeslot.Hours(float64(cfg.Overhead) / float64(len(shards)))
	pending := make([]*task, len(shards))
	for i, sh := range shards {
		var words int
		for _, d := range sh {
			words += wordCount(d)
		}
		pending[i] = &task{shard: sh, remaining: timeslot.Hours(float64(words)*perWord) + overheadShare}
	}

	// Provision the master.
	var masterReq *cloud.SpotRequest
	var masterInst *cloud.Instance
	if cfg.Master.OnDemand {
		masterInst, err = region.LaunchOnDemand(cfg.Master.Type)
	} else {
		var reqs []*cloud.SpotRequest
		reqs, err = region.RequestSpotInstances(cfg.Master.Type, cfg.Master.Bid, cfg.Master.Kind, 1)
		if err == nil {
			masterReq = reqs[0]
		}
	}
	if err != nil {
		return Result{}, fmt.Errorf("mapreduce: provisioning master: %w", err)
	}

	// Provision the slaves.
	slaves := make([]*slave, cfg.Workers)
	if cfg.Slave.OnDemand {
		for i := range slaves {
			inst, err := region.LaunchOnDemand(cfg.Slave.Type)
			if err != nil {
				return Result{}, fmt.Errorf("mapreduce: provisioning slave %d: %w", i, err)
			}
			slaves[i] = &slave{inst: inst}
		}
	} else {
		reqs, err := region.RequestSpotInstances(cfg.Slave.Type, cfg.Slave.Bid, cfg.Slave.Kind, cfg.Workers)
		if err != nil {
			return Result{}, fmt.Errorf("mapreduce: provisioning slaves: %w", err)
		}
		for i, q := range reqs {
			slaves[i] = &slave{req: q}
		}
	}

	start := region.Now()
	slotHours := timeslot.Hours(float64(region.Grid().Slot))
	intermediate := make(map[string][]int)
	emit := func(k string, v int) { intermediate[k] = append(intermediate[k], v) }

	res := Result{}
	tasksLeft := len(pending)

	masterUp := func() bool {
		if masterInst != nil {
			return masterInst.Running
		}
		return masterReq.State == cloud.Active
	}

	fail := func() {
		res.MasterOutbid = true
	}

	for tasksLeft > 0 {
		if err := region.Tick(); err != nil {
			if errors.Is(err, cloud.ErrEndOfTrace) {
				break // partial result
			}
			return Result{}, err
		}

		// Master health: a one-time master that is out-bid kills the
		// job (the scenario §6.2's joint bid is designed to avoid).
		if masterReq != nil && masterReq.Kind == cloud.OneTime && masterReq.State == cloud.Closed {
			fail()
			break
		}

		for _, s := range slaves {
			up := s.running()
			if !up {
				if s.wasRunning {
					// Interrupted: progress is checkpointed, but the
					// task returns to the pool so another node can
					// take it (MapReduce failure handling).
					res.Interruptions++
					if s.task != nil {
						pending = append(pending, s.task)
						s.task = nil
						res.Reassignments++
					}
				}
				s.wasRunning = false
				continue
			}
			if !s.wasRunning && s.everRan {
				s.needRec = true
			}
			if s.needRec {
				s.pendingRec += cfg.Recovery
				s.needRec = false
			}
			s.wasRunning, s.everRan = true, true

			avail := slotHours
			if s.pendingRec > 0 {
				use := s.pendingRec
				if use > avail {
					use = avail
				}
				s.pendingRec -= use
				avail -= use
			}
			// Work through tasks; a finished task frees the rest of
			// the slot for the next one (while the master is up to
			// assign it).
			for avail > 0 {
				if s.task == nil {
					if !masterUp() || len(pending) == 0 {
						break
					}
					s.task = pending[0]
					pending = pending[1:]
				}
				if s.task.remaining > avail {
					s.task.remaining -= avail
					avail = 0
					break
				}
				avail -= s.task.remaining
				for _, doc := range s.task.shard {
					WordCount{}.Map(doc, emit)
				}
				s.task = nil
				tasksLeft--
				if tasksLeft == 0 {
					break
				}
			}
			if tasksLeft == 0 {
				break
			}
		}
	}

	// Account for in-flight tasks at an abnormal stop.
	if tasksLeft == 0 {
		res.Completed = true
		// Reduce phase (on the master, instantaneous in the model —
		// its time is part of t_o).
		res.Counts = make(map[string]int, len(intermediate))
		for k, vs := range intermediate {
			res.Counts[k] = WordCount{}.Reduce(k, vs)
		}
	}
	res.Completion = timeslot.Hours(float64(region.Now()-start) * float64(slotHours))

	// Release resources and tally the bill.
	if masterInst != nil {
		if masterInst.Running {
			_ = region.TerminateInstance(masterInst.ID)
		}
		res.MasterCost = masterInst.Cost
	} else {
		if masterReq.State == cloud.Active || masterReq.State == cloud.Open {
			_ = region.CancelSpotRequest(masterReq.ID)
		}
		res.MasterCost = region.RequestCost(masterReq)
	}
	for _, s := range slaves {
		if s.inst != nil {
			if s.inst.Running {
				_ = region.TerminateInstance(s.inst.ID)
			}
			res.SlaveCost += s.inst.Cost
		} else {
			if s.req.State == cloud.Active || s.req.State == cloud.Open {
				_ = region.CancelSpotRequest(s.req.ID)
			}
			res.SlaveCost += region.RequestCost(s.req)
		}
	}
	res.TotalCost = res.MasterCost + res.SlaveCost
	return res, nil
}

// wordCount counts whitespace-separated tokens without allocating.
func wordCount(s string) int {
	n := 0
	inWord := false
	for i := 0; i < len(s); i++ {
		sp := s[i] == ' ' || s[i] == '\t' || s[i] == '\n'
		if !sp && !inWord {
			n++
		}
		inWord = !sp
	}
	return n
}
