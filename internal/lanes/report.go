package lanes

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
)

// Outcome reports lane i's result in the single-job runtime's terms —
// field for field and bit for bit what job.Run would have returned for
// the same (trace, bid, kind, spec). The cost is the launch-order sum
// of per-instance bills, exactly as job.Tracker.Outcome sums them.
func (e *Engine) Outcome(i int) job.Outcome {
	end := e.slot
	if st := e.status[i]; st == laneDone || st == laneFailed {
		end = int(e.finish[i])
	}
	cost := e.cost[i] + e.instCost[i]
	run := float64(e.runSlots[i]) * e.slotHours
	out := job.Outcome{
		Completed:     e.status[i] == laneDone,
		Completion:    timeslot.Hours(float64(end-int(e.start[i])) * e.slotHours),
		RunTime:       timeslot.Hours(run),
		IdleTime:      timeslot.Hours(float64(e.idleSlots[i]) * e.slotHours),
		RecoveryTime:  timeslot.Hours(e.recHours[i]),
		Interruptions: int(e.intr[i]),
		Cost:          cost,
	}
	if run > 0 {
		out.PricePerRunHour = cost / run
	}
	return out
}

// Row aggregates one (market, kind) cohort of the fleet.
type Row struct {
	Type          instances.Type
	Kind          string // "one-time" | "persistent"
	Lanes         int
	Completed     int
	Failed        int
	Interruptions int
	Cost          float64
	RunHours      float64
	IdleHours     float64
	RecoveryHours float64
	// PricePerRunHour is cohort cost over cohort billed hours — the
	// fleet analogue of Fig. 6(a)'s per-hour price.
	PricePerRunHour float64
	// OnDemandRatio is that price over the on-demand price: the
	// paper's headline savings metric.
	OnDemandRatio float64
}

// Report is the fleet summary: one row per (market, kind) cohort in
// market-then-kind order, plus fleet totals. It is built by a serial
// lane-order reduction over the engine arrays, so its bytes are part
// of the determinism contract.
type Report struct {
	Lanes   int
	Horizon int
	Rows    []Row
	Total   Row
}

// Report reduces the lane arrays into the fleet summary. Serial and
// in lane-index order by construction — never called from a shard.
func (e *Engine) Report() *Report {
	rows := make([]Row, len(e.markets)*2)
	for i := range rows {
		rows[i].Type = e.markets[i/2].typ
		rows[i].Kind = kindName(uint8(i % 2))
	}
	for i := 0; i < e.N(); i++ {
		out := e.Outcome(i)
		r := &rows[int(e.market[i])*2+int(e.kind[i])]
		r.Lanes++
		if out.Completed {
			r.Completed++
		}
		if e.status[i] == laneFailed {
			r.Failed++
		}
		r.Interruptions += out.Interruptions
		r.Cost += out.Cost
		r.RunHours += float64(out.RunTime)
		r.IdleHours += float64(out.IdleTime)
		r.RecoveryHours += float64(out.RecoveryTime)
	}
	rep := &Report{Lanes: e.N(), Horizon: e.horizon}
	for i := range rows {
		r := &rows[i]
		if r.RunHours > 0 {
			r.PricePerRunHour = r.Cost / r.RunHours
			if od := e.markets[i/2].onDemand; od > 0 {
				r.OnDemandRatio = r.PricePerRunHour / od
			}
		}
		rep.Total.Lanes += r.Lanes
		rep.Total.Completed += r.Completed
		rep.Total.Failed += r.Failed
		rep.Total.Interruptions += r.Interruptions
		rep.Total.Cost += r.Cost
		rep.Total.RunHours += r.RunHours
		rep.Total.IdleHours += r.IdleHours
		rep.Total.RecoveryHours += r.RecoveryHours
	}
	rep.Rows = rows
	rep.Total.Kind = "total"
	if rep.Total.RunHours > 0 {
		rep.Total.PricePerRunHour = rep.Total.Cost / rep.Total.RunHours
	}
	return rep
}

func kindName(k uint8) string {
	if k == KindPersistent {
		return "persistent"
	}
	return "one-time"
}

// Render formats the report as an aligned text table; its bytes are
// deterministic (%.6f formatting, fixed row order).
func (r *Report) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fleet: %d lanes over %d slots\n", r.Lanes, r.Horizon)
	fmt.Fprintf(&b, "%-12s %-10s %6s %6s %6s %7s %12s %12s %12s %10s %8s\n",
		"type", "kind", "lanes", "done", "fail", "intr", "cost", "run-h", "idle-h", "$/run-h", "vs-OD")
	line := func(r Row) {
		fmt.Fprintf(&b, "%-12s %-10s %6d %6d %6d %7d %12.6f %12.4f %12.4f %10.6f %8.4f\n",
			r.Type, r.Kind, r.Lanes, r.Completed, r.Failed, r.Interruptions,
			r.Cost, r.RunHours, r.IdleHours, r.PricePerRunHour, r.OnDemandRatio)
	}
	for _, row := range r.Rows {
		line(row)
	}
	line(r.Total)
	return b.String()
}

// JSON renders the report as deterministic bytes: fixed key order,
// shortest round-trip float formatting, no map iteration anywhere.
func (r *Report) JSON() []byte {
	var b bytes.Buffer
	b.WriteString("{\"lanes\":")
	b.WriteString(strconv.Itoa(r.Lanes))
	b.WriteString(",\"horizon\":")
	b.WriteString(strconv.Itoa(r.Horizon))
	b.WriteString(",\"rows\":[")
	for i, row := range r.Rows {
		if i > 0 {
			b.WriteByte(',')
		}
		writeRowJSON(&b, row)
	}
	b.WriteString("],\"total\":")
	writeRowJSON(&b, r.Total)
	b.WriteString("}\n")
	return b.Bytes()
}

func writeRowJSON(b *bytes.Buffer, r Row) {
	b.WriteString("{\"type\":\"")
	b.WriteString(string(r.Type))
	b.WriteString("\",\"kind\":\"")
	b.WriteString(r.Kind)
	b.WriteString("\",\"lanes\":")
	b.WriteString(strconv.Itoa(r.Lanes))
	b.WriteString(",\"completed\":")
	b.WriteString(strconv.Itoa(r.Completed))
	b.WriteString(",\"failed\":")
	b.WriteString(strconv.Itoa(r.Failed))
	b.WriteString(",\"interruptions\":")
	b.WriteString(strconv.Itoa(r.Interruptions))
	writeFloatField(b, "cost", r.Cost)
	writeFloatField(b, "run_hours", r.RunHours)
	writeFloatField(b, "idle_hours", r.IdleHours)
	writeFloatField(b, "recovery_hours", r.RecoveryHours)
	writeFloatField(b, "price_per_run_hour", r.PricePerRunHour)
	writeFloatField(b, "on_demand_ratio", r.OnDemandRatio)
	b.WriteByte('}')
}

func writeFloatField(b *bytes.Buffer, key string, v float64) {
	b.WriteString(",\"")
	b.WriteString(key)
	b.WriteString("\":")
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}

// WriteJSONL streams one record per lane in lane-index order —
// deterministic bytes for the replay/flight-recorder comparisons.
func (e *Engine) WriteJSONL(w io.Writer) error {
	var b bytes.Buffer
	for i := 0; i < e.N(); i++ {
		b.Reset()
		out := e.Outcome(i)
		b.WriteString("{\"lane\":")
		b.WriteString(strconv.Itoa(i))
		b.WriteString(",\"type\":\"")
		b.WriteString(string(e.markets[e.market[i]].typ))
		b.WriteString("\",\"kind\":\"")
		b.WriteString(kindName(e.kind[i]))
		b.WriteString("\",\"start\":")
		b.WriteString(strconv.Itoa(int(e.start[i])))
		writeFloatField(&b, "bid", e.bid[i])
		b.WriteString(",\"completed\":")
		b.WriteString(strconv.FormatBool(out.Completed))
		b.WriteString(",\"interruptions\":")
		b.WriteString(strconv.Itoa(out.Interruptions))
		writeFloatField(&b, "cost", out.Cost)
		writeFloatField(&b, "run_hours", float64(out.RunTime))
		writeFloatField(&b, "idle_hours", float64(out.IdleTime))
		writeFloatField(&b, "recovery_hours", float64(out.RecoveryTime))
		writeFloatField(&b, "price_per_run_hour", out.PricePerRunHour)
		b.WriteString("}\n")
		if _, err := w.Write(b.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Types reports the market instance types in market order — handy for
// callers labelling per-market output.
func (e *Engine) Types() []instances.Type {
	ts := make([]instances.Type, len(e.markets))
	for i := range e.markets {
		ts[i] = e.markets[i].typ
	}
	return ts
}
