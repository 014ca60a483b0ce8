package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/arrivals"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/timeslot"
)

// Calibration couples an instance type's provider parameters with its
// arrival distribution: the generative model for that type's
// synthetic spot-price history. θ is the paper's fitted value; β and
// the plateau+tail arrival mixture are calibrated to reproduce the
// *shape* of real 2014 spot histories (see the calibrations var and
// DESIGN.md for why the paper's literal fitted parameters cannot be
// reused under the exact-Jacobian parameterization).
type Calibration struct {
	// Type is the instance type.
	Type instances.Type
	// Provider holds (π̲, π̄, β, θ) for the type's spot market.
	Provider market.Provider
	// PlateauAlpha is the Pareto shape of the steep arrival
	// component that produces the dense price plateau at the floor
	// (the left spike of every Fig. 3 panel). Large: ≈ 120.
	PlateauAlpha float64
	// TailAlpha is the Pareto shape of the heavy-tailed arrival
	// component that produces the occasional price spikes. Small:
	// ≈ 2.2–3.
	TailAlpha float64
	// PlateauWeight is the mixture weight of the plateau component
	// (≈ 0.9: real spot prices sat at the floor most of the time).
	PlateauWeight float64
	// ExpEta seeds the exponential fit of the Fig. 3 experiment.
	ExpEta float64
}

// calibrations maps every cataloged instance type to its generative
// parameters. π̲ sits near 8.6% of the on-demand price (the level
// real 2014 spot prices hovered at; exactly 0.030 for r3.xlarge as in
// Fig. 4); θ = 0.02 is the paper's fitted departure fraction.
//
// The arrival process is a two-Pareto mixture rather than the paper's
// single Pareto, and β is derived rather than the paper's fitted
// value: the paper fit the un-Jacobianed Eq. 7 density to real
// histories, while this generator must *produce* realistic histories
// through the exact push-forward (see DESIGN.md). The mixture's steep
// component (PlateauAlpha ≈ 120) yields the dense plateau right at
// the floor that every Fig. 3 panel shows, and the heavy component
// (TailAlpha ≈ 2.5) yields the occasional spikes; Λ_min/θ =
// β/(π̄−2π̲)−1 = 1.5 places arrivals in h's curved regime so the
// spikes reach meaningfully above the plateau. This regime is what
// gives the paper's §5 trade-off an interior optimum: ψ(π̲) =
// π̲·f_π(π̲) must exceed t_k/t_r − 1 (else the optimal persistent bid
// degenerates to the floor), while ψ at the one-time percentile must
// fall below it (else persistent bids would exceed one-time bids,
// contradicting Table 3/Fig. 6). The Fig. 3 experiment re-fits both
// density forms to the synthetic traces and reports the recovered
// parameters next to the paper's.
var calibrations = map[instances.Type]Calibration{
	// Fig. 3(a–d) types.
	instances.M3XLarge: cal(instances.M3XLarge, 0.024, 120, 2.4, 0.90, 0.00013),
	instances.M32XL:    cal(instances.M32XL, 0.048, 130, 2.6, 0.90, 7.1e-5),
	instances.R3XLarge: cal(instances.R3XLarge, 0.030, 120, 2.5, 0.90, 0.000108),
	instances.M1XLarge: cal(instances.M1XLarge, 0.030, 115, 2.3, 0.89, 0.000204),
	// Table 3/4 types.
	instances.R32XL:    cal(instances.R32XL, 0.060, 120, 2.5, 0.90, 1.0e-4),
	instances.R34XL:    cal(instances.R34XL, 0.120, 125, 2.5, 0.91, 1.0e-4),
	instances.C3XLarge: cal(instances.C3XLarge, 0.018, 120, 2.7, 0.90, 1.5e-4),
	instances.C32XL:    cal(instances.C32XL, 0.036, 120, 2.7, 0.90, 1.2e-4),
	instances.C34XL:    cal(instances.C34XL, 0.072, 125, 2.7, 0.90, 1.2e-4),
	instances.C38XL:    cal(instances.C38XL, 0.144, 130, 2.8, 0.91, 2.0e-4),
	// Remaining 2014 catalog, same families' shapes.
	instances.M3Medium: cal(instances.M3Medium, 0.006, 120, 2.4, 0.90, 1.3e-4),
	instances.M3Large:  cal(instances.M3Large, 0.012, 120, 2.4, 0.90, 1.3e-4),
	instances.R3Large:  cal(instances.R3Large, 0.015, 120, 2.5, 0.90, 1.1e-4),
	instances.R38XL:    cal(instances.R38XL, 0.240, 125, 2.5, 0.91, 1.0e-4),
	instances.C3Large:  cal(instances.C3Large, 0.009, 120, 2.7, 0.90, 1.5e-4),
	instances.G22XL:    cal(instances.G22XL, 0.056, 115, 2.3, 0.89, 1.6e-4),
	instances.I2XLarge: cal(instances.I2XLarge, 0.073, 115, 2.4, 0.89, 1.6e-4),
}

// arrivalHeadroom is 1 + Λ_min/θ: how far into h's curved regime the
// arrival volumes sit. 2.5 puts the price floor at π̲ with a knee and
// a heavy-but-rare spike tail, the shape of real 2014 spot histories.
const arrivalHeadroom = 2.5

func cal(t instances.Type, pmin, plateauAlpha, tailAlpha, plateauWeight, eta float64) Calibration {
	spec := instances.MustLookup(t)
	return Calibration{
		Type: t,
		Provider: market.Provider{
			PMin:      pmin,
			POnDemand: spec.OnDemand,
			Beta:      arrivalHeadroom * (spec.OnDemand - 2*pmin),
			Theta:     0.02,
		},
		PlateauAlpha:  plateauAlpha,
		TailAlpha:     tailAlpha,
		PlateauWeight: plateauWeight,
		ExpEta:        eta,
	}
}

// CalibrationFor returns the generative parameters for an instance
// type.
func CalibrationFor(t instances.Type) (Calibration, error) {
	c, ok := calibrations[t]
	if !ok {
		return Calibration{}, fmt.Errorf("trace: no calibration for instance type %q", t)
	}
	return c, nil
}

// ArrivalDist returns the calibrated arrival distribution: the
// plateau+tail Pareto mixture, both components starting at
// Λ_min = h⁻¹(π̲) so prices begin exactly at the floor.
func (c Calibration) ArrivalDist() (dist.Dist, error) {
	mix, _, err := c.arrival()
	if err != nil {
		return nil, err
	}
	return mix, nil
}

// arrival returns ArrivalDist's mixture and its two Pareto components
// in mixture order, which the lazy-level generator samples directly.
func (c Calibration) arrival() (*dist.Mixture, [2]dist.Pareto, error) {
	var comps [2]dist.Pareto
	lamMin, err := c.Provider.ParetoArrivalMin()
	if err != nil {
		return nil, comps, fmt.Errorf("trace: calibration for %s: %w", c.Type, err)
	}
	for i, alpha := range []float64{c.PlateauAlpha, c.TailAlpha} {
		if comps[i], err = dist.NewPareto(alpha, lamMin); err != nil {
			return nil, comps, fmt.Errorf("trace: calibration for %s: %w", c.Type, err)
		}
	}
	mix, err := dist.NewMixture([]dist.Dist{comps[0], comps[1]}, []float64{c.PlateauWeight, 1 - c.PlateauWeight})
	return mix, comps, err
}

// PriceDist returns the analytic equilibrium spot-price distribution
// implied by the calibration: the "true" F_π against which trace
// estimates and fits are judged.
func (c Calibration) PriceDist() (*market.EquilibriumPriceDist, error) {
	par, err := c.ArrivalDist()
	if err != nil {
		return nil, err
	}
	return market.NewEquilibriumPriceDist(c.Provider, par)
}

// GenOptions controls synthetic trace generation.
type GenOptions struct {
	// Days is the trace span (default 61, the paper's two-month
	// window, Aug 14 – Oct 13 2014).
	Days int
	// Seed drives the generator (default 1).
	Seed int64
	// FullDynamics switches from the i.i.d. equilibrium model
	// (Prop. 2, the default) to the complete queue simulation
	// (Eq. 3 + Eq. 4), whose prices carry temporal correlation.
	FullDynamics bool
	// DiurnalAmplitude, when positive, modulates the arrival volume
	// over the day — used to *break* stationarity deliberately in
	// the §4.3 KS validation.
	DiurnalAmplitude float64
	// DwellSlots is the mean number of slots a price level persists
	// (geometric dwell). Real 2014 spot prices changed every
	// ~45 minutes, not every five-minute slot; the paper's one-time
	// experiments ("none were interrupted", §7.1) depend on that
	// stickiness, which an i.i.d. trace lacks. Dwell times are
	// independent of the level, so the marginal distribution stays
	// exactly the equilibrium distribution. 0 means the default of
	// 18 slots (90 min); 1 gives the paper's literal i.i.d. model.
	// Ignored under FullDynamics (whose queue provides persistence).
	DwellSlots int
	// Metrics, when non-nil, records generation statistics:
	// trace.slots_generated (counter), trace.price_usd (histogram over
	// obs.PriceBuckets of the emitted per-slot prices), and
	// trace.dwell_switches (counter of regime changes under the dwell
	// model). Under FullDynamics it is also forwarded to the queue
	// simulator (market.* metrics). Nil — the default — records
	// nothing and changes no behavior.
	Metrics *obs.Registry
	// Trace, when non-nil, receives a PriceSet flight-recorder event
	// per price *change* in the generated history (Region "generator",
	// Subject: the instance type), slot-indexed into the generated
	// grid. Nil — the default — records nothing.
	Trace *event.Recorder
}

// Generate produces a synthetic spot-price history for the instance
// type, calibrated to the paper's parameters.
func Generate(t instances.Type, opt GenOptions) (*Trace, error) {
	c, err := CalibrationFor(t)
	if err != nil {
		return nil, err
	}
	return c.Generate(opt)
}

// Generate produces a synthetic history from this calibration and
// records it into opt.Metrics and opt.Trace with RecordGeneration.
//
// Generation is memoized (see memo.go): two calls with the same
// calibration and options return traces sharing one immutable price
// series, and since RecordGeneration reads only the returned header, a
// hit records exactly what a miss does. The sole non-cacheable
// combination is FullDynamics with a Metrics registry, whose queue
// simulator records per-slot market.* series while it runs; those are
// recorded only here, never by RecordGeneration.
func (c Calibration) Generate(opt GenOptions) (*Trace, error) {
	tr, err := c.generate(opt)
	if err != nil {
		return nil, err
	}
	tr.RecordGeneration(opt.Metrics, opt.Trace)
	return tr, nil
}

// generate is Generate without the recording: the memoized series
// behind a fresh header. A new series is validated before it is
// cached, and a hit returns the cached header without a second pass.
func (c Calibration) generate(opt GenOptions) (*Trace, error) {
	if opt.Days == 0 {
		opt.Days = 61
	}
	if opt.Days < 0 {
		return nil, fmt.Errorf("trace: negative day count %d", opt.Days)
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	dwell := opt.DwellSlots
	if dwell == 0 {
		dwell = 18
	}
	if dwell < 1 {
		return nil, fmt.Errorf("trace: dwell %d must be at least 1 slot", opt.DwellSlots)
	}
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	n := opt.Days * int(grid.SlotsPerHour()) * 24

	key := memoKey{
		cal:     c,
		days:    opt.Days,
		seed:    opt.Seed,
		full:    opt.FullDynamics,
		diurnal: opt.DiurnalAmplitude,
		dwell:   dwell,
	}
	cacheable := !(opt.FullDynamics && opt.Metrics != nil)
	if cacheable {
		if tr, ok := memoLookup(key); ok {
			return tr, nil
		}
	}

	mix, comps, err := c.arrival()
	if err != nil {
		return nil, err
	}
	var proc arrivals.Process = arrivals.NewIID(mix)
	if opt.DiurnalAmplitude > 0 {
		proc, err = arrivals.NewDiurnal(proc, opt.DiurnalAmplitude, int(grid.SlotsPerHour())*24)
		if err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewSource(opt.Seed))

	// The i.i.d. model draws, in this order: for each slot, the mixture
	// component's uniform, then that component's Pareto uniform; then,
	// under a dwell, one uniform per slot after the first to decide
	// whether the slot keeps the previous level. iidPrices draws them
	// in that order and prices the levels it keeps with the arithmetic
	// proc would use, without proc's interface calls per slot. The queue
	// model and the diurnal modulation (used by the §4.3 stationarity
	// check) draw through proc.
	var prices []float64
	var switches int64
	switch {
	case opt.FullDynamics:
		sim := market.Simulator{Provider: c.Provider, Arrivals: proc, Warmup: 1000, Metrics: opt.Metrics}
		res, err := sim.Run(n, r)
		if err != nil {
			return nil, err
		}
		prices = res.Prices
		dwell = 0 // ignored: the queue provides the persistence
	case !(opt.DiurnalAmplitude > 0):
		prices, switches, err = c.iidPrices(mix, comps, n, dwell, r)
		if err != nil {
			return nil, err
		}
	default:
		prices, err = market.EquilibriumPrices(c.Provider, proc, n, r)
		if err != nil {
			return nil, err
		}
		if dwell > 1 {
			switches = dwellPass(prices, dwell, r, func(i int) float64 { return prices[i] })
		}
	}
	tr, err := New(c.Type, grid, prices)
	if err != nil {
		return nil, err
	}
	tr.switches, tr.dwell = switches, dwell
	if cacheable {
		tr.ecdf = &ecdfCell{}
		memoStore(key, tr)
	}
	return tr, nil
}

// RecordGeneration records into m and rec what generating t records:
// the trace.slots_generated counter, the trace.price_usd histogram of
// its prices, trace.dwell_switches when it was generated under a dwell
// of more than one slot, and one PriceSet flight-recorder event per
// price change (Region "generator", Subject: the instance type),
// slot-indexed into its grid. A nil m or rec records nothing there.
//
// Generate calls it with GenOptions.Metrics and GenOptions.Trace, so a
// trace generated quietly, with both nil, can be recorded later and on
// another goroutine with the same result. It reads only t's header,
// never the memo. The market.* series of a FullDynamics generation are
// the exception: the queue simulator records them only inside
// Generate. On a trace the generator did not return, RecordGeneration
// records its slots, its prices and their PriceSet series.
func (t *Trace) RecordGeneration(m *obs.Registry, rec *event.Recorder) {
	if t.dwell > 1 {
		m.Counter("trace.dwell_switches").Add(t.switches)
	}
	if m != nil {
		m.Counter("trace.slots_generated").Add(int64(len(t.Prices)))
		m.Histogram("trace.price_usd", obs.PriceBuckets).ObserveBatch(t.Prices)
	}
	// One PriceSet per price change; the batch path keeps tracing off
	// the generator's critical path even under i.i.d. pricing, where
	// every slot changes.
	rec.EmitSeries(event.Event{Kind: event.PriceSet, Region: "generator", Subject: string(t.Type)}, t.Prices)
}

// iidPrices is the i.i.d. model: the draws of market.EquilibriumPrices
// over arrivals.IID(mix), followed under a dwell by dwellPass, bit for
// bit. At dwell 1 every level is kept, and each slot draws its
// component and its Pareto uniform and prices them at once. Under a
// dwell the levels are lazy: each slot's Pareto uniform waits in the
// price slice and its component index in a byte slice, and only the
// levels the dwell pass keeps pay for the transform and H. It returns
// EquilibriumPrices's errors for an invalid provider or a non-positive
// count.
func (c Calibration) iidPrices(mix *dist.Mixture, comps [2]dist.Pareto, n, dwell int, r *rand.Rand) ([]float64, int64, error) {
	prov := c.Provider
	if err := prov.Validate(); err != nil {
		return nil, 0, err
	}
	if n <= 0 {
		return nil, 0, fmt.Errorf("trace: price count %d must be positive", n)
	}
	prices := make([]float64, n)
	if dwell == 1 {
		for i := range prices {
			k := mix.Pick(r.Float64())
			prices[i] = prov.H(comps[k].FromUniform(r.Float64()))
		}
		return prices, 0, nil
	}
	comp := make([]uint8, n)
	for i := range prices {
		comp[i] = uint8(mix.Pick(r.Float64()))
		prices[i] = r.Float64()
	}
	switches := dwellPass(prices, dwell, r, func(i int) float64 {
		return prov.H(comps[comp[i]].FromUniform(prices[i]))
	})
	return prices, switches, nil
}

// dwellPass applies regime persistence in place. Slot 0 takes its
// drawn level; every later slot makes one dwell draw and keeps the
// previous slot's price, switching to its own drawn level with
// probability 1/dwell. The drawn levels are i.i.d. equilibrium, so the
// marginal is untouched; only the temporal grain changes. level(i)
// yields slot i's drawn level and is called only for the levels the
// pass keeps. It returns the number of switches.
func dwellPass(prices []float64, dwell int, r *rand.Rand, level func(int) float64) int64 {
	switchP := 1 / float64(dwell)
	cur := level(0)
	prices[0] = cur
	var switches int64
	for i := 1; i < len(prices); i++ {
		if r.Float64() >= switchP {
			prices[i] = cur
		} else {
			cur = level(i)
			prices[i] = cur
			switches++
		}
	}
	return switches
}
