package experiments

import (
	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/obs/tsdb"
	"repro/internal/sched"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// Table3Row is one instance type's optimal bid prices for a one-hour
// job (the paper's Table 3).
type Table3Row struct {
	Type instances.Type
	// OnDemand is π̄, the cost baseline.
	OnDemand float64
	// OneTime is the Prop. 4 bid.
	OneTime float64
	// Persistent10 and Persistent30 are the Prop. 5 bids for
	// t_r = 10s and t_r = 30s.
	Persistent10, Persistent30 float64
	// BestOffline is p̂: the §7.1 retrospective baseline searched
	// over the last 10 hours of history.
	BestOffline float64
	// BestOfflineUnderbids reports whether p̂ sits below the one-time
	// optimum — the paper's observation that 10 hours of history can
	// underbid the future.
	BestOfflineUnderbids bool
}

// Table3Result is the Table 3 reproduction.
type Table3Result struct {
	Rows []Table3Row
	// Exec is the job length (1 hour in the paper).
	Exec timeslot.Hours
}

// Table3 computes the optimal bid prices of Table 3 from two-month
// synthetic histories for the five experiment types.
//
// The types are independent markets, so they run on sched.Ordered:
// each type's history is generated in type order (its metrics and
// PriceSet emission stay in that order, inside trace.Generate), and
// its ECDF and bids are solved on another core while the next type
// generates. The per-type counter and TSDB samples are recorded after
// the solves finish, in type order, so the schedule is the same with
// or without instrumentation and, when Table3 succeeds, every output
// byte is independent of GOMAXPROCS. When a solve fails, later types
// may already have generated into o.Metrics and o.Trace.
func Table3(o Opts) (Table3Result, error) {
	o = o.withDefaults()
	res := Table3Result{Exec: 1}
	types := instances.Table3Types()
	traces := make([]*trace.Trace, len(types))
	rows := make([]Table3Row, len(types))
	err := sched.Ordered(len(types), func(i int) (err error) {
		// DwellSlots 1: the table's bids depend only on the price
		// marginal; independent draws give the cleanest two-month
		// ECDF.
		traces[i], err = trace.Generate(types[i], trace.GenOptions{Days: 61, Seed: o.Seed + int64(i)*211, DwellSlots: 1, Metrics: o.Metrics, Trace: o.Trace})
		return err
	}, func(i int) (err error) {
		rows[i], err = table3Row(types[i], traces[i], res.Exec)
		return err
	})
	if err != nil {
		return Table3Result{}, err
	}
	for i, row := range rows {
		o.Metrics.Counter("experiments.table3.types").Inc()
		if o.TSDB != nil {
			// Table 3 has no slot loop — it is pure computation over a
			// generated history — so the per-type bids are recorded as
			// one sample each at the history's final slot, labelled by
			// market. This is the cross-type comparison series, not a
			// time walk.
			ls := tsdb.L("type", string(row.Type))
			slot := traces[i].Len() - 1
			o.TSDB.Append("table3.on_demand", ls, slot, row.OnDemand)
			o.TSDB.Append("table3.one_time_bid", ls, slot, row.OneTime)
			o.TSDB.Append("table3.persistent_bid_10s", ls, slot, row.Persistent10)
			o.TSDB.Append("table3.persistent_bid_30s", ls, slot, row.Persistent30)
			o.TSDB.Append("table3.best_offline", ls, slot, row.BestOffline)
		}
	}
	res.Rows = rows
	return res, nil
}

// table3Row solves one type's row from its generated history: the
// Prop. 4 and Prop. 5 bids on the history's ECDF, and p̂ over its last
// 10 hours.
func table3Row(typ instances.Type, tr *trace.Trace, exec timeslot.Hours) (Table3Row, error) {
	ecdf, err := tr.ECDF(0)
	if err != nil {
		return Table3Row{}, err
	}
	m := core.Market{Price: ecdf, OnDemand: instances.MustLookup(typ).OnDemand}
	oneTime, err := m.OneTimeBid(core.Job{Exec: exec})
	if err != nil {
		return Table3Row{}, err
	}
	p10, err := m.PersistentBid(core.Job{Exec: exec, Recovery: timeslot.Seconds(10)})
	if err != nil {
		return Table3Row{}, err
	}
	p30, err := m.PersistentBid(core.Job{Exec: exec, Recovery: timeslot.Seconds(30)})
	if err != nil {
		return Table3Row{}, err
	}
	hist, err := tr.LastHours(timeslot.Hours(10))
	if err != nil {
		return Table3Row{}, err
	}
	best, err := hist.BestOfflinePrice(exec)
	if err != nil {
		return Table3Row{}, err
	}
	return Table3Row{
		Type:                 typ,
		OnDemand:             m.OnDemand,
		OneTime:              oneTime.Price,
		Persistent10:         p10.Price,
		Persistent30:         p30.Price,
		BestOffline:          best,
		BestOfflineUnderbids: best < oneTime.Price,
	}, nil
}

// Render returns the result as an aligned text table.
func (r Table3Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		under := "no"
		if row.BestOfflineUnderbids {
			under = "yes"
		}
		rows[i] = []string{
			string(row.Type), f4(row.OnDemand), f4(row.OneTime),
			f4(row.Persistent10), f4(row.Persistent30), f4(row.BestOffline), under,
		}
	}
	return Table([]string{"type", "on-demand", "one-time", "persistent-10s", "persistent-30s", "best-offline", "underbids"}, rows)
}
