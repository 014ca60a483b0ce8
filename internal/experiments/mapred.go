package experiments

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/instances"
	"repro/internal/mapreduce"
	"repro/internal/sched"
	"repro/internal/timeslot"
)

// MRSetting is one of the five §7.2 client settings: which instance
// types serve the master and slave roles. The paper bids
// compute-optimized types for the slaves and cheaper types for the
// master (the master only coordinates).
type MRSetting struct {
	Name          string
	Master, Slave instances.Type
}

// Table4Settings are the five client settings used for Table 4 and
// Figure 7.
func Table4Settings() []MRSetting {
	return []MRSetting{
		{"S1", instances.C3XLarge, instances.C32XL},
		{"S2", instances.C3XLarge, instances.C34XL},
		{"S3", instances.M3XLarge, instances.C34XL},
		{"S4", instances.M3XLarge, instances.C38XL},
		{"S5", instances.R3XLarge, instances.C38XL},
	}
}

// mrSpec builds the word-count workload of §7.2: t_r = 30s,
// t_o = 60s, and a corpus sized to t_s = 2 instance-hours.
func mrSpec(setting MRSetting, seed int64) (client.MapReduceSpec, error) {
	corpus, err := mapreduce.GenerateCorpus(60, 250, seed) // 15000 words
	if err != nil {
		return client.MapReduceSpec{}, err
	}
	return client.MapReduceSpec{
		MasterType:   setting.Master,
		SlaveType:    setting.Slave,
		Corpus:       corpus,
		WordsPerHour: 7500,
		Recovery:     timeslot.Seconds(30),
		Overhead:     timeslot.Seconds(60),
	}, nil
}

// Table4Row is one client setting of Table 4: the optimal bids, the
// minimum worker count, and the measured cost split.
type Table4Row struct {
	Setting MRSetting
	// MasterBid and SlaveBid are the Eq. 20 optimal bid prices.
	MasterBid, SlaveBid float64
	// Workers is the planner's minimum M.
	Workers int
	// MasterCost and SlaveCost are measured means over Runs.
	MasterCost, SlaveCost float64
	// MasterShare is MasterCost/SlaveCost (the paper: 10–25%).
	MasterShare float64
	// Runs counts completed repetitions.
	Runs int
}

// Table4Result is the Table 4 reproduction.
type Table4Result struct{ Rows []Table4Row }

// Fig7Row is one client setting of Figure 7: completion time and
// cost, spot vs on-demand, analytic vs measured.
type Fig7Row struct {
	Setting MRSetting
	// SpotCompletion/SpotCost are measured means on spot instances.
	SpotCompletion timeslot.Hours
	SpotCost       float64
	// AnalyticCompletion/AnalyticCost are the Eq. 20 plan's
	// predictions.
	AnalyticCompletion timeslot.Hours
	AnalyticCost       float64
	// ODCompletion/ODCost are the on-demand baseline means.
	ODCompletion timeslot.Hours
	ODCost       float64
	// Savings is 1 − spot/on-demand cost (the paper: up to 92.6%).
	Savings float64
	// Slowdown is spot/on-demand completion − 1 (the paper: ≈14.9%).
	Slowdown float64
	// Runs counts completed repetitions.
	Runs int
}

// Fig7Result is the Figure 7 reproduction.
type Fig7Result struct{ Rows []Fig7Row }

// MapReduceEval runs the five §7.2 client settings Runs times each and
// produces both Table 4 and Figure 7.
func MapReduceEval(o Opts) (Table4Result, Fig7Result, error) {
	o = o.withDefaults()
	settings := Table4Settings()
	type mrRun struct {
		rep client.MapReduceReport
		od  mapreduce.Result
		ok  bool
	}
	runsOut := make([][]mrRun, len(settings))
	cellOffs := make([][]int, len(settings))
	for si := range settings {
		runsOut[si] = make([]mrRun, o.Runs)
		cellOffs[si] = offsets(o.Runs, o.Seed+int64(si))
	}
	// Both arms of each repetition run on private regions: every
	// (setting, run) pair schedules freely through one shared pool,
	// deterministic by seed; aggregation follows in setting order.
	err := sched.Grid(len(settings), o.Runs, nil, func(si, run int) error {
		setting := settings[si]
		seed := o.Seed + int64(si)*2003 + int64(run)*7919
		spec, err := mrSpec(setting, seed)
		if err != nil {
			return err
		}

		// Spot arm.
		region, err := regionFor([]instances.Type{setting.Master, setting.Slave}, seed, o.Days)
		if err != nil {
			return err
		}
		cl, err := client.New(region)
		if err != nil {
			return err
		}
		if err := cl.Skip(historySlots + cellOffs[si][run]); err != nil {
			return err
		}
		rep, err := cl.RunMapReduce(spec)
		if err != nil {
			return err
		}
		if !rep.Result.Completed {
			return nil
		}

		// On-demand arm on an identical fresh region, same M.
		region2, err := regionFor([]instances.Type{setting.Master, setting.Slave}, seed, o.Days)
		if err != nil {
			return err
		}
		cl2, err := client.New(region2)
		if err != nil {
			return err
		}
		if err := cl2.Skip(historySlots + cellOffs[si][run]); err != nil {
			return err
		}
		od, err := cl2.RunMapReduceOnDemand(spec, rep.Plan.Workers)
		if err != nil {
			return err
		}
		if !od.Completed {
			return nil
		}
		runsOut[si][run] = mrRun{rep: rep, od: od, ok: true}
		return nil
	})
	var t4 Table4Result
	var f7 Fig7Result
	if err != nil {
		return t4, f7, err
	}
	for si, setting := range settings {
		var (
			mCost, sCost, spotCost, spotCompl float64
			anCost, anCompl, odCost, odCompl  float64
			masterBid, slaveBid               float64
			workers, completed                int
		)
		for _, r := range runsOut[si] {
			if !r.ok {
				continue
			}
			rep, od := r.rep, r.od
			completed++
			masterBid += rep.Plan.Master.Price
			slaveBid += rep.Plan.Slaves.Price
			workers = rep.Plan.Workers
			mCost += rep.Result.MasterCost
			sCost += rep.Result.SlaveCost
			spotCost += rep.Result.TotalCost
			spotCompl += float64(rep.Result.Completion)
			anCost += rep.Plan.TotalCost
			anCompl += float64(rep.Plan.Completion)
			odCost += od.TotalCost
			odCompl += float64(od.Completion)
		}
		if completed == 0 {
			return t4, f7, fmt.Errorf("experiments: no completed MapReduce runs for %s", setting.Name)
		}
		n := float64(completed)
		t4.Rows = append(t4.Rows, Table4Row{
			Setting:     setting,
			MasterBid:   masterBid / n,
			SlaveBid:    slaveBid / n,
			Workers:     workers,
			MasterCost:  mCost / n,
			SlaveCost:   sCost / n,
			MasterShare: (mCost / n) / (sCost / n),
			Runs:        completed,
		})
		f7.Rows = append(f7.Rows, Fig7Row{
			Setting:            setting,
			SpotCompletion:     timeslot.Hours(spotCompl / n),
			SpotCost:           spotCost / n,
			AnalyticCompletion: timeslot.Hours(anCompl / n),
			AnalyticCost:       anCost / n,
			ODCompletion:       timeslot.Hours(odCompl / n),
			ODCost:             odCost / n,
			Savings:            1 - (spotCost/n)/(odCost/n),
			Slowdown:           (spotCompl/n)/(odCompl/n) - 1,
			Runs:               completed,
		})
	}
	return t4, f7, nil
}

// Render returns Table 4 as an aligned text table.
func (r Table4Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Setting.Name,
			string(row.Setting.Master), string(row.Setting.Slave),
			f4(row.MasterBid), f4(row.SlaveBid),
			fmt.Sprintf("%d", row.Workers),
			f4(row.MasterCost), f4(row.SlaveCost), pct(row.MasterShare),
			fmt.Sprintf("%d", row.Runs),
		}
	}
	return Table([]string{"setting", "master", "slave", "master-bid", "slave-bid", "M", "master-cost", "slave-cost", "master/slave", "runs"}, rows)
}

// Render returns Figure 7 as an aligned text table.
func (r Fig7Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Setting.Name,
			f2(float64(row.SpotCompletion)), f2(float64(row.AnalyticCompletion)), f2(float64(row.ODCompletion)),
			f4(row.SpotCost), f4(row.AnalyticCost), f4(row.ODCost),
			pct(row.Savings), pct(row.Slowdown),
			fmt.Sprintf("%d", row.Runs),
		}
	}
	return Table([]string{"setting", "T-spot", "T-model", "T-od", "cost-spot", "cost-model", "cost-od", "savings", "slowdown", "runs"}, rows)
}
